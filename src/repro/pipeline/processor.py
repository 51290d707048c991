"""The cycle-level out-of-order processor kernel.

One :class:`Processor` couples synthetic programs to the Table-3
microarchitecture and a speculation controller (baseline, Selective
Throttling, Pipeline Gating or an oracle).  The per-cycle loop is a
**stage pipeline**: five components from :mod:`repro.pipeline.stages`
(fetch, decode+rename, select/issue, execute/writeback, commit+recover)
with explicit latch interfaces, driven in reverse pipeline order by a
:class:`~repro.pipeline.stages.scheduler.CycleScheduler`::

    commit -> writeback/resolve -> issue/select -> rename/dispatch
           -> decode -> fetch -> power accounting

**Wrong-path execution is real**: the front-end walks the program CFG along
its *predictions*; a misprediction sends it down the wrong target, fetching,
decoding and executing real wrong-path code until the branch resolves at
execute, squashes younger instructions and redirects fetch.  Squashed
instructions carry their per-unit access tallies into the power model's
wasted pool — that is what reproduces the paper's Table 1.

**Hardware threads.** All per-thread state — the front-end cursors, the
branch predictor, confidence estimator, BTB, RAS, the in-order latches, and
the thread's back-end partition (ROB/IQ/LSQ/renamer) — lives in a
:class:`ThreadContext`.  The kernel drives a list of contexts sharing the
functional units, memory hierarchy, power model and cycle counter; the
classic single-program constructor builds exactly one context, so the
baseline machine is the one-thread instantiation of the same kernel.
:class:`repro.smt.core.SmtProcessor` instantiates several contexts plus a
fetch policy to model an SMT core.

Occupancy that other components need every cycle — total ROB/IQ/LSQ
entries across threads (the shared-capacity caps of an SMT core, and the
ROB occupancy that drives clock-tree power) — is maintained
**incrementally** on the kernel (``rob_count``/``iq_count``/``lsq_count``)
by the stages that move instructions, instead of re-summing the threads'
structures every cycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.gshare import GSharePredictor
from repro.bpred.ras import ReturnAddressStack
from repro.confidence.base import ConfidenceEstimator
from repro.confidence.bpru import BPRUEstimator
from repro.confidence.jrs import JRSEstimator
from repro.confidence.perfect import PerfectEstimator
from repro.core.throttler import NullController, SpeculationController
from repro.errors import ConfigurationError, SimulationError
from repro.frontend.supply import CompiledSupply
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.arrays import CompletionWheel, LatchArray, completion_span
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.iq import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.renamer import RegisterRenamer
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.stages.scheduler import CycleScheduler
from repro.pipeline.stats import SimStats
from repro.power.model import ClockGatingStyle, PowerModel
from repro.program.cfg import Program
from repro.telemetry.probes import ProbeBus

# Address-space separation between hardware threads: programs are generated
# over the same synthetic address ranges, so each thread's code and data are
# offset into a private region — two threads must contend for cache sets,
# never alias onto the same lines.  The stride carries a line-aligned,
# non-power-of-2 skew: a pure power-of-2 stride is a multiple of every
# cache's way size, which would map all threads' hottest lines onto the
# same sets and thrash an N>ways mix before a single instruction commits.
# Thread 0's offset is zero, keeping the single-thread machine
# bit-identical to the pre-SMT model.
THREAD_ADDRESS_STRIDE = 0x4000_0000 + 0x2480


def build_estimator(config: ProcessorConfig) -> ConfidenceEstimator:
    """Instantiate the confidence estimator named by the configuration."""
    kind = config.confidence_kind
    if kind == "bpru":
        return BPRUEstimator(config.confidence_size_kb)
    if kind == "jrs":
        return JRSEstimator(config.confidence_size_kb, config.jrs_threshold)
    if kind == "perfect":
        return PerfectEstimator()
    raise ConfigurationError(f"unknown confidence kind {kind!r}")


_BASE = SpeculationController


def _closed_step() -> None:
    raise SimulationError("the processor is closed")


class ThreadContext:
    """Everything one hardware thread owns.

    Front-end: program, prediction structures, fetch cursors and the two
    in-order latches.  Back-end partition: renamer, ROB, IQ and LSQ (each
    thread commits in its own program order and recovers its own branch
    mispredictions, so these are private; capacity sharing across threads
    is enforced by the kernel's shared caps when configured).  The
    per-thread counters feed the SMT fairness/throughput metrics and reset
    with the measured window.

    The ``ctrl_*`` flags cache which :class:`SpeculationController` hooks
    the thread's controller can act through, so the stage hot loops skip
    hook calls that cannot change anything: the fetch-side hooks a
    controller class does not override, and the decode and selection
    hooks its policy never arms (``throttles_decode`` /
    ``throttles_selection``).

    Slotted: the fetch cursors and measured counters are touched every
    cycle by the stage kernel.
    """

    __slots__ = (
        "thread_id", "program", "controller", "seed", "mem_offset",
        "bpred", "confidence", "btb", "ras", "supply",
        "ctrl_gates_fetch", "ctrl_blocks_decode", "ctrl_blocks_selection",
        "ctrl_has_fetch_hook", "ctrl_has_resolve_hook",
        "ctrl_has_squash_hook", "ctrl_blocks_wp_fetch",
        "fetch_mode", "true_index", "wp_cursor", "wp_packet", "wp_pos",
        "wp_salt", "fetch_stall_until", "unresolved_mispredicts",
        "fetch_buffer", "fetch_latch", "decode_latch", "renamer", "rob",
        "rob_entries", "iq", "lsq",
        "last_committed_true_index", "commits_since_prune",
        "lowconf_inflight", "committed", "fetched", "fetched_wrong_path",
        "squashed", "cond_branches_committed", "mispredictions_committed",
        "fetch_cycles", "policy_gated_cycles",
    )

    def __init__(
        self,
        thread_id: int,
        config: ProcessorConfig,
        program: Program,
        controller: SpeculationController,
        seed: int,
        rob_size: int,
        iq_size: int,
        lsq_size: int,
        fetch_buffer: int,
    ) -> None:
        self.thread_id = thread_id
        self.program = program
        self.controller = controller
        self.seed = seed
        self.mem_offset = thread_id * THREAD_ADDRESS_STRIDE

        self.bpred = GSharePredictor(config.bpred_size_kb)
        self.confidence = build_estimator(config)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_depth)
        # The front-end instruction source: the program's pre-lowered
        # block packets, walked with this thread's seed.
        self.supply = CompiledSupply(program, seed)

        # Controller capability flags (see class docstring).
        ctrl_type = type(controller)
        self.ctrl_gates_fetch = ctrl_type.fetch_allowed is not _BASE.fetch_allowed
        self.ctrl_blocks_decode = controller.throttles_decode
        self.ctrl_blocks_selection = controller.throttles_selection
        self.ctrl_has_fetch_hook = (
            ctrl_type.on_branch_fetched is not _BASE.on_branch_fetched
        )
        self.ctrl_has_resolve_hook = (
            ctrl_type.on_branch_resolved is not _BASE.on_branch_resolved
        )
        self.ctrl_has_squash_hook = (
            ctrl_type.on_branch_squashed is not _BASE.on_branch_squashed
        )
        # Constant per controller instance (oracle-fetch mode).
        self.ctrl_blocks_wp_fetch = controller.blocks_wrong_path_fetch

        # Fetch state.  On the wrong path the thread consumes one supply
        # packet at a time: ``wp_packet``/``wp_pos`` hold the in-progress
        # packet (``wp_cursor`` is the continuation once it drains).
        # Whoever re-points ``wp_cursor`` outside the fetch loop (branch
        # recovery) must clear ``wp_packet``.
        self.fetch_mode = "true"
        self.true_index = 0
        self.wp_cursor = None
        self.wp_packet = None
        self.wp_pos = 0
        self.wp_salt = 0
        self.fetch_stall_until = 0
        self.unresolved_mispredicts = 0
        self.fetch_buffer = fetch_buffer

        # In-order front-end latches (fetch->decode, decode->rename): flat
        # instrs/stamps columns, mutated in place and never rebound, so
        # the stage hot loops alias them directly.
        self.fetch_latch = LatchArray()
        self.decode_latch = LatchArray()

        # Back-end partition.
        self.renamer = RegisterRenamer()
        self.rob = ReorderBuffer(rob_size)
        self.rob_entries = self.rob.entries  # stable deque, aliased hot
        self.iq = IssueQueue(iq_size)
        self.lsq = LoadStoreQueue(lsq_size)

        self.last_committed_true_index = 0
        self.commits_since_prune = 0

        # Fetch-gating signal: conditional branches in flight whose
        # confidence label was low (LC/VLC).  SMT fetch policies read it.
        self.lowconf_inflight = 0

        # Measured-window counters (reset with the measurement window).
        self.committed = 0
        self.fetched = 0
        self.fetched_wrong_path = 0
        self.squashed = 0
        self.cond_branches_committed = 0
        self.mispredictions_committed = 0
        self.fetch_cycles = 0
        self.policy_gated_cycles = 0

    def reset_measurement(self) -> None:
        """Zero the measured-window counters; keep microarchitectural state."""
        self.committed = 0
        self.fetched = 0
        self.fetched_wrong_path = 0
        self.squashed = 0
        self.cond_branches_committed = 0
        self.mispredictions_committed = 0
        self.fetch_cycles = 0
        self.policy_gated_cycles = 0


class Processor:
    """Cycle-level model of the paper's simulated machine.

    The classic constructor builds a one-thread machine around a single
    program — bit-identical to the pre-refactor monolithic core (the
    golden-fingerprint sweep in ``tests/test_stage_kernel_parity.py``
    enforces it).  Subclasses (the SMT core) populate ``self.threads``
    with several contexts and set ``self.fetch_policy`` before calling
    :meth:`_finish_threads`, which instantiates the stage scheduler.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        program: Program,
        controller: Optional[SpeculationController] = None,
        clock_gating: ClockGatingStyle = ClockGatingStyle.CC3,
        seed: int = 1,
    ) -> None:
        self._init_shared(config, clock_gating)
        self.seed = seed
        self.threads: List[ThreadContext] = [
            ThreadContext(
                0,
                config,
                program,
                controller or NullController(),
                seed,
                rob_size=config.rob_size,
                iq_size=config.iq_size,
                lsq_size=config.lsq_size,
                fetch_buffer=config.effective_fetch_buffer,
            )
        ]
        self._finish_threads()

    def _init_shared(
        self,
        config: ProcessorConfig,
        clock_gating: ClockGatingStyle,
        attribute_threads: bool = False,
    ) -> None:
        """Initialise state shared by every hardware thread."""
        self.config = config
        self.memory = MemoryHierarchy(
            icache_kb=config.icache_kb,
            dcache_kb=config.dcache_kb,
            l1_ways=config.l1_ways,
            l2_kb=config.l2_kb,
            l2_ways=config.l2_ways,
            line_bytes=config.line_bytes,
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
            tlb_entries=config.tlb_entries,
            extra_dcache_latency=config.extra_dcache_latency,
        )
        self._clock_gating = clock_gating
        self._attribute_threads = attribute_threads
        self.power = PowerModel(
            style=clock_gating, attribute_threads=attribute_threads
        )

        self.cycle = 0
        # Global fetch-order sequence (tags, select order, squash ages).
        self.seq = 0

        self.fu_pool = FunctionalUnitPool(config)
        # Execute -> writeback latch: a power-of-2 timing ring.
        self.completions = CompletionWheel(
            completion_span(config, self.memory.tlb.miss_penalty)
        )

        # Incremental occupancy: total ROB/IQ/LSQ entries over all threads,
        # updated by the stages at dispatch/issue/commit/squash.
        self.rob_count = 0
        self.iq_count = 0
        self.lsq_count = 0

        self.stats = SimStats()
        # SMT hooks; the single-thread machine leaves them inert.
        self.fetch_policy = None
        self.shared_caps: Optional[Tuple[int, int, int]] = None
        # The pipetrace recorder; set by attach_tracer, None otherwise
        # (and then never read: only the checked stepper touches it).
        self.tracer = None
        # The telemetry probe bus; built in _finish_threads when
        # config.telemetry is set, None otherwise (and then never read:
        # only the checked stepper touches it).
        self.probes = None

    def _finish_threads(self) -> None:
        """Derived totals and the stage kernel; call once ``self.threads``
        is populated."""
        if self.shared_caps is not None:
            # Shared back-end: every thread's ROB is full-size but the
            # dispatch cap bounds total in-flight — occupancy (which
            # drives clock-tree power) is over the *shared* capacity.
            self.total_rob_size = self.shared_caps[0]
        else:
            self.total_rob_size = sum(thread.rob.size for thread in self.threads)
        self.scheduler = CycleScheduler(self)
        # The checked stepper is chosen once here, so the per-cycle loop
        # carries no mode branch and a run with both modes off costs
        # nothing extra.
        if self.config.telemetry:
            self.probes = ProbeBus(self)
        if self.config.telemetry or self.config.sanitize:
            self._step = self.scheduler.step_checked
        else:
            self._step = self.scheduler.step

    def attach_tracer(self, tracer) -> None:
        """Record a pipetrace of this run (``repro.tracing.PipelineTracer``).

        The tracer diffs the kernel around each stage tick, so attaching
        it binds the checked stepper; the plain stepper never sees it.
        """
        tracer.bind(self)
        self.tracer = tracer
        self._step = self.scheduler.step_checked

    def close(self) -> None:
        """Release the stage kernel; the statistics stay readable.

        The scheduler, its stages, the bound stepper, the tracer and the
        probe bus all point back at this processor, so a finished machine
        would otherwise live on as cyclic garbage until a full collection.
        Dropping them here lets reference counting free the whole machine
        the moment its last user lets go.  A closed processor cannot step.
        """
        self.scheduler = None
        self._step = _closed_step
        self.tracer = None
        self.probes = None

    @property
    def supply(self) -> CompiledSupply:
        """Thread 0's instruction supply (true path + wrong-path packets)."""
        return self.threads[0].supply

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    def run(self, max_instructions: int, warmup_instructions: int = 0) -> SimStats:
        """Simulate until ``max_instructions`` commit in the measured window.

        ``warmup_instructions`` commit first with statistics discarded
        (microarchitectural state — caches, predictor, estimator — is kept,
        as in any sampled simulation methodology).
        """
        if max_instructions <= 0:
            raise SimulationError("max_instructions must be positive")
        if warmup_instructions:
            self._run_until(warmup_instructions)
            self.reset_measurement()
        self._run_until(max_instructions)
        return self.stats

    def reset_measurement(self) -> None:
        """Zero statistics and energy; keep all microarchitectural state."""
        self.stats = SimStats()
        self.power = PowerModel(
            style=self._clock_gating, attribute_threads=self._attribute_threads,
        )
        for thread in self.threads:
            thread.reset_measurement()
        if self.probes is not None:
            self.probes.reset()

    def _run_until(self, instructions: int) -> None:
        stats = self.stats
        base = stats.committed
        target = base + instructions
        limit = self.cycle + instructions * 400 + 100_000
        step = self._step
        while stats.committed < target:
            step()
            if self.cycle > limit:
                raise SimulationError(
                    f"no forward progress: {stats.committed - base} of "
                    f"{instructions} instructions after {self.cycle} cycles"
                )
