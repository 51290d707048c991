"""The execution engine: one entry point for every simulation.

Every simulation — a one-off ``simulate(make_cell(...))`` or a cell of a
registered study run on the sweep scheduler — funnels through
:func:`simulate`, driven by a declarative :class:`SimCell` (benchmark,
controller spec, configuration, seed, run lengths).  One code path means
one set of collected metrics: campaign results carry the same ``extra``
throttling counters as single runs, and the seed convention is defined
in exactly one place.

**Seed convention.** ``SimCell.seed`` is *the* seed of a cell: it drives
both program generation (the sampled synthetic benchmark) and the
processor's internal randomness.  ``None`` means "the benchmark's
calibrated default" (``benchmark_spec(name).seed``).  Campaign seed
variants therefore regenerate the program *and* reseed the processor from
the same value.

On top of :func:`simulate` the module layers :class:`ResultCache` — a
content-addressed on-disk JSON cache keyed on :func:`cell_fingerprint` (a
SHA-256 over the full cell, including every
:class:`~repro.pipeline.config.ProcessorConfig` field), so interrupted
campaigns resume and repeated figure runs are near-instant.  Parallel
fan-out lives in :class:`~repro.experiments.scheduler.SweepScheduler`,
the one executor sweeps run through.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.core.gating import PipelineGatingController
from repro.core.levels import BandwidthLevel
from repro.core.oracle import OracleController, OracleMode
from repro.core.policy import ThrottleAction, ThrottlePolicy, experiment_policy
from repro.core.throttler import NullController, SelectiveThrottler, SpeculationController
from repro.errors import ExperimentError
from repro.experiments.results import SimulationResult
from repro.pipeline.config import ProcessorConfig, table3_config
from repro.pipeline.processor import Processor
from repro.power.model import ClockGatingStyle
from repro.smt.core import SmtProcessor
from repro.smt.metrics import (
    SmtResult,
    collect_smt_result,
    smt_result_from_dict,
    smt_result_to_dict,
)
from repro.smt.mixes import mix_spec
from repro.smt.policies import make_fetch_policy
from repro.telemetry.events import publish as telemetry_publish
from repro.workloads.suite import benchmark_spec

ControllerSpec = Tuple

# Bump when the cell fingerprint or the result payload changes shape, so a
# stale cache directory never feeds old-format entries to new code.
_CACHE_SCHEMA = 1


def default_instructions() -> int:
    """Measured instructions per run (env: REPRO_SIM_INSTRUCTIONS)."""
    return int(os.environ.get("REPRO_SIM_INSTRUCTIONS", "30000"))


def default_warmup() -> int:
    """Warm-up instructions per run (env: REPRO_SIM_WARMUP)."""
    return int(os.environ.get("REPRO_SIM_WARMUP", "10000"))


# ----------------------------------------------------------------------
# Controller plumbing (shared by every entry point)
# ----------------------------------------------------------------------

def make_controller(spec: ControllerSpec) -> SpeculationController:
    """Instantiate the speculation controller named by ``spec``."""
    if not spec or spec[0] == "baseline":
        return NullController()
    kind = spec[0]
    if kind in ("throttle", "throttle-noescalate"):
        policy = experiment_policy(spec[1])
        if policy is None:
            raise ExperimentError(
                f"experiment {spec[1]!r} is Pipeline Gating; use ('gating', N)"
            )
        return SelectiveThrottler(policy, escalate_only=kind == "throttle")
    if kind == "policy":
        return SelectiveThrottler(policy_from_spec(spec))
    if kind == "gating":
        threshold = spec[1] if len(spec) > 1 else 2
        return PipelineGatingController(threshold)
    if kind == "oracle":
        return OracleController(OracleMode(spec[1]))
    raise ExperimentError(f"unknown controller spec {spec!r}")


def policy_spec(policy: ThrottlePolicy) -> ControllerSpec:
    """Encode an arbitrary throttle policy as a picklable controller spec.

    ``("policy", name, lc, vlc, hc, vhc)`` with each action a plain
    ``(fetch, decode, no_select)`` tuple of ints/bool — all four
    confidence levels, so even policies that throttle on HC/VHC (which
    the paper's tables never do) round-trip exactly.  Policy-search
    cells therefore flow through the engine, the process pool and the
    JSON cache like any named experiment.
    """
    from repro.confidence.base import ConfidenceLevel

    def encode(action: ThrottleAction) -> Tuple[int, int, bool]:
        return (int(action.fetch), int(action.decode), bool(action.no_select))

    return (
        "policy",
        policy.name,
        encode(policy.action_for(ConfidenceLevel.LC)),
        encode(policy.action_for(ConfidenceLevel.VLC)),
        encode(policy.action_for(ConfidenceLevel.HC)),
        encode(policy.action_for(ConfidenceLevel.VHC)),
    )


def policy_from_spec(spec: ControllerSpec) -> ThrottlePolicy:
    """Rebuild the throttle policy encoded by :func:`policy_spec`."""
    if len(spec) != 6:
        raise ExperimentError(f"malformed policy spec {spec!r}")
    _, name, lc, vlc, hc, vhc = spec

    def decode(action) -> ThrottleAction:
        fetch, decode_bw, no_select = action
        return ThrottleAction(
            BandwidthLevel(fetch), BandwidthLevel(decode_bw), bool(no_select)
        )

    return ThrottlePolicy(
        name, lc=decode(lc), vlc=decode(vlc), hc=decode(hc), vhc=decode(vhc)
    )


def confidence_kind_for(spec: ControllerSpec) -> Optional[str]:
    """The estimator each mechanism is evaluated with in the paper.

    A third element on a throttle spec overrides the estimator —
    ``("throttle", "C2", "jrs")`` runs Selective Throttling on JRS labels
    (the estimator-swap ablation).
    """
    kind = spec[0] if spec else "baseline"
    if kind in ("throttle", "throttle-noescalate"):
        return spec[2] if len(spec) > 2 else "bpru"
    if kind == "policy":
        return "bpru"  # policy search evaluates on the paper's estimator
    if kind == "gating":
        return "jrs"
    if kind == "oracle":
        return "perfect"
    return None  # baseline: keep whatever the config says


def label_of(spec: ControllerSpec) -> str:
    """The default display label of a controller spec."""
    kind = spec[0] if spec else "baseline"
    if kind == "baseline":
        return "baseline"
    if kind == "throttle":
        return spec[1] if len(spec) < 3 else f"{spec[1]}/{spec[2]}"
    if kind == "throttle-noescalate":
        return f"{spec[1]}-noesc"
    if kind == "policy":
        return spec[1]
    if kind == "gating":
        return f"gating(th={spec[1] if len(spec) > 1 else 2})"
    if kind == "oracle":
        return f"oracle-{spec[1]}"
    return str(spec)


# ----------------------------------------------------------------------
# The simulation cell
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimCell:
    """Everything that determines one simulation run.

    Two cells with equal fields produce bit-identical results (the
    simulator is deterministic), which is what makes the on-disk cache
    and the parallel fan-out safe.  ``label`` is display-only and is
    deliberately excluded from the fingerprint.  The instruction stream
    is always the benchmark's generated program, walked by
    :class:`~repro.frontend.supply.CompiledSupply`.
    """

    benchmark: str
    controller_spec: ControllerSpec
    config: ProcessorConfig
    instructions: int
    warmup: int
    seed: Optional[int] = None
    clock_gating: str = ClockGatingStyle.CC3.value
    label: Optional[str] = None

    @property
    def effective_seed(self) -> int:
        """The cell's seed (program *and* processor; see module docs)."""
        if self.seed is not None:
            return self.seed
        return benchmark_spec(self.benchmark).seed

    @property
    def effective_label(self) -> str:
        return self.label or label_of(self.controller_spec)


def make_cell(
    benchmark: str,
    controller_spec: ControllerSpec = ("baseline",),
    config: Optional[ProcessorConfig] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    clock_gating: str = ClockGatingStyle.CC3.value,
    label: Optional[str] = None,
) -> SimCell:
    """Build a :class:`SimCell`, filling library defaults for blanks."""
    return SimCell(
        benchmark=benchmark,
        controller_spec=tuple(controller_spec),
        config=config or table3_config(),
        instructions=instructions or default_instructions(),
        warmup=default_warmup() if warmup is None else warmup,
        seed=seed,
        clock_gating=clock_gating,
        label=label,
    )


# Per-process memo of generated programs, keyed by (benchmark, seed).
# Generation is deterministic and all run-to-run mutable state (branch
# behaviour RNGs, loop trip counters) is reset by ``Program.
# reset_behaviors`` when a processor takes ownership of the program, so a
# sequential re-run on a memoised instance is bit-identical to a fresh
# build — figure studies and benchmarks simulate the same program under
# many mechanisms, and generation was a measurable slice of short cells.
# The SMT path shares the memo per thread (key: benchmark and the derived
# thread seed); only two threads of one core with the same key get a
# private instance, because concurrent hardware threads cannot share
# behaviour state.
#
# Bounded as a true LRU: scheduler workers live for a whole multi-study
# run (the shared pool), and each memoised program holds about 1.2 MB, so
# the cap bounds worker RSS whatever the sweep size.  The scheduler plans
# one batch per affinity group (split only above ceil(cells / jobs)), so
# a batch needs one program, and a study over the eight suite benchmarks
# at their calibrated seeds fits.  A study that follows one over more
# programs rebuilds what was evicted: after the 32-program campaign,
# figure3 rebuilds all eight (about 45 ms each).
_PROGRAM_MEMO: "OrderedDict[Tuple[str, int], Program]" = OrderedDict()
_PROGRAM_MEMO_LIMIT = 8


def _program_for(spec) -> "Program":
    """The (memoised) program of a workload spec (bounded LRU)."""
    key = (spec.name, spec.seed)
    program = _PROGRAM_MEMO.get(key)
    if program is None:
        program = spec.build_program()
        _PROGRAM_MEMO[key] = program
        if len(_PROGRAM_MEMO) > _PROGRAM_MEMO_LIMIT:
            _PROGRAM_MEMO.popitem(last=False)
    else:
        _PROGRAM_MEMO.move_to_end(key)
    return program


def build_processor(cell: SimCell) -> Processor:
    """Construct (but do not run) the processor a cell describes.

    Split out of :func:`simulate` so instrumentation harnesses — the
    stage-timer mode of ``tools/profile_run.py``, tests that inspect
    kernel state mid-run — get exactly the simulate-path machine
    (controller/estimator pairing, seed convention)
    without duplicating the recipe.
    """
    seed = cell.effective_seed
    spec = benchmark_spec(cell.benchmark)
    if seed != spec.seed:
        spec = replace(spec, seed=seed)
    config = cell.config
    confidence_kind = confidence_kind_for(cell.controller_spec)
    if confidence_kind is not None and config.confidence_kind != confidence_kind:
        config = replace(config, confidence_kind=confidence_kind)
    return Processor(
        config,
        _program_for(spec),
        controller=make_controller(cell.controller_spec),
        clock_gating=ClockGatingStyle(cell.clock_gating),
        seed=seed,
    )


def simulate(cell: SimCell) -> SimulationResult:
    """Run one cell and collect every measured quantity.

    This is the single execution core: the controller/estimator pairing,
    the seed convention and the result fields (including the ``extra``
    throttling counters) are defined here and nowhere else.
    """
    processor = build_processor(cell)
    try:
        stats = processor.run(cell.instructions, warmup_instructions=cell.warmup)
        if processor.probes is not None:
            _publish_probe_snapshot("sim", cell.benchmark, cell, processor)
        power = processor.power

        total_energy = power.total_energy()
        wasted_fraction = (
            power.total_wasted_energy() / total_energy if total_energy else 0.0
        )
        return SimulationResult(
            benchmark=cell.benchmark,
            label=cell.effective_label,
            instructions=stats.committed,
            cycles=stats.cycles,
            ipc=stats.ipc,
            average_power_watts=power.average_power(),
            energy_joules=total_energy,
            execution_seconds=power.execution_seconds(),
            miss_rate=stats.branch_miss_rate,
            spec_metric=stats.confidence.spec(),
            pvn_metric=stats.confidence.pvn(),
            wrong_path_fetch_fraction=stats.wrong_path_fetch_fraction,
            wasted_energy_fraction=wasted_fraction,
            breakdown=power.breakdown(),
            extra={
                "fetch_throttled_cycles": stats.fetch_throttled_cycles,
                "decode_throttled_cycles": stats.decode_throttled_cycles,
                "selection_blocked": stats.selection_blocked,
                "squashed": stats.squashed,
            },
        )
    finally:
        processor.close()


# ----------------------------------------------------------------------
# The SMT mix cell
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SmtCell:
    """Everything that determines one SMT multi-program simulation.

    ``instructions``/``warmup`` are *per thread* (the SMT core runs until
    every thread reaches the target).  ``seed`` is the mix's base seed
    (``None`` means the mix's default); per-thread program seeds derive
    from it via :func:`repro.utils.rng.derive_thread_seed`, so one integer
    reproduces the whole mix and its single-threaded reference runs.
    """

    mix: str
    config: ProcessorConfig
    instructions: int
    warmup: int
    policy: str = "confidence-gating"
    sharing: str = "partitioned"
    seed: Optional[int] = None
    clock_gating: str = ClockGatingStyle.CC3.value

    @property
    def effective_seed(self) -> int:
        """The mix's base seed (explicit, or the mix default)."""
        if self.seed is not None:
            return self.seed
        return mix_spec(self.mix).seed


def make_smt_cell(
    mix: str,
    policy: str = "confidence-gating",
    sharing: str = "partitioned",
    config: Optional[ProcessorConfig] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    clock_gating: str = ClockGatingStyle.CC3.value,
) -> SmtCell:
    """Build an :class:`SmtCell`, filling library defaults for blanks."""
    mix_spec(mix)  # validate the name eagerly
    return SmtCell(
        mix=mix,
        config=config or table3_config(),
        instructions=instructions or default_instructions(),
        warmup=default_warmup() if warmup is None else warmup,
        policy=policy,
        sharing=sharing,
        seed=seed,
        clock_gating=clock_gating,
    )


def build_smt_processor(cell: SmtCell) -> SmtProcessor:
    """Construct (but do not run) the SMT core a mix cell describes."""
    spec = mix_spec(cell.mix)
    base_seed = cell.effective_seed
    seeds = spec.thread_seeds(base_seed)
    programs = []
    for thread_spec in spec.thread_specs(base_seed):
        program = _program_for(thread_spec)
        if any(program is other for other in programs):
            # Two threads of one core need private behaviour state.
            program = thread_spec.build_program()
        programs.append(program)
    return SmtProcessor(
        cell.config,
        programs,
        seeds,
        fetch_policy=make_fetch_policy(cell.policy),
        sharing=cell.sharing,
        clock_gating=ClockGatingStyle(cell.clock_gating),
    )


def simulate_smt(cell: SmtCell) -> SmtResult:
    """Run one SMT mix cell and collect every measured quantity."""
    processor = build_smt_processor(cell)
    try:
        processor.run(cell.instructions, warmup_instructions=cell.warmup)
        if processor.probes is not None:
            _publish_probe_snapshot("smt", cell.mix, cell, processor)
        return collect_smt_result(
            processor, cell.mix, cell.policy, cell.instructions
        )
    finally:
        processor.close()


def _publish_probe_snapshot(kind: str, workload: str, cell, processor) -> None:
    """Emit a ``stage-counters`` event for one instrumented run.

    The snapshot travels the telemetry bus only — it never joins the
    :class:`SimulationResult` or a cache entry, because ``telemetry`` is
    excluded from fingerprints: a telemetry-off run may be served a
    cache entry written by a telemetry-on run, and the payloads must be
    indistinguishable.  (Corollary: a warm-cache cell emits no
    stage-counters event; only actual simulations do.)
    """
    telemetry_publish(
        "stage-counters",
        kind=kind,
        workload=workload,
        label=getattr(cell, "effective_label", None) or getattr(cell, "policy", ""),
        seed=cell.effective_seed,
        counters=processor.probes.snapshot(),
    )


def smt_baseline_cells(cell: SmtCell) -> List[SimCell]:
    """The single-threaded reference cells of an SMT mix, in thread order.

    Thread *i*'s reference runs the same benchmark on the same derived
    seed (so the *identical* program instance) alone on the baseline core
    for the same per-thread run lengths — the denominators of weighted
    speedup and harmonic fairness.  Each is an ordinary :class:`SimCell`,
    so references are cached and shared across mixes and policies.
    """
    spec = mix_spec(cell.mix)
    seeds = spec.thread_seeds(cell.effective_seed)
    return [
        SimCell(
            benchmark=benchmark,
            controller_spec=("baseline",),
            config=cell.config,
            instructions=cell.instructions,
            warmup=cell.warmup,
            seed=seed,
            clock_gating=cell.clock_gating,
            label=f"{benchmark}@t{thread_id}",
        )
        for thread_id, (benchmark, seed) in enumerate(zip(spec.benchmarks, seeds))
    ]


# ----------------------------------------------------------------------
# Fingerprinting and result (de)serialisation
# ----------------------------------------------------------------------

# Configuration fields that cannot change a simulation result and so must
# not enter content addresses: ``sanitize`` only toggles invariant checks
# (a sanitized run is bit-identical or raises), ``telemetry`` only attaches
# the read-only probe bus, ``cycle_skip`` only fast-forwards cycles with a
# bit-identical outcome (tests/test_kernel_equivalence.py), and hashing any
# of them would split the cache by debug/observability/skip mode.
_NON_RESULT_FIELDS = frozenset({"sanitize", "telemetry", "cycle_skip"})


def _config_items(config: ProcessorConfig) -> List[Tuple[str, object]]:
    return [
        (name, value)
        for name, value in sorted(vars(config).items())
        if name not in _NON_RESULT_FIELDS
    ]


_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_digest(root: str) -> str:
    """SHA-256 over the sorted (relative path, bytes) of every ``.py``
    file under ``root``."""
    paths = sorted(
        os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as handle:
            source = handle.read()
        digest.update(f"{path}\0{len(source)}\0".encode("utf-8") + source)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _package_digest() -> str:
    # Once per process, ~2 ms.  Every module of the package is hashed,
    # not only those a simulation reaches: no import-graph analysis at
    # start-up.
    return source_digest(_PACKAGE_ROOT)


def _code_version() -> str:
    """The code component of every cache key: the package version plus a
    digest of the package source, so any edit to the simulator's code
    makes a persistent cache miss."""
    # Imported lazily: repro/__init__ imports this module at package load.
    from repro import __version__

    return f"{__version__}+{_package_digest()}"


def cell_fingerprint(cell: SimCell) -> str:
    """A stable content address of a cell (display label excluded).

    Hashes a canonical JSON encoding of the benchmark, controller spec,
    every ``ProcessorConfig`` field, the effective seed, the clock-gating
    style, both run lengths and the code version (the package version and
    a digest of its source), so any change that could alter the
    simulation invalidates the cache entry.
    """
    payload = {
        "schema": _CACHE_SCHEMA,
        "version": _code_version(),
        "benchmark": cell.benchmark,
        "controller_spec": list(cell.controller_spec),
        "config": dict(_config_items(cell.config)),
        "seed": cell.effective_seed,
        "clock_gating": cell.clock_gating,
        "instructions": cell.instructions,
        "warmup": cell.warmup,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def smt_cell_fingerprint(cell: SmtCell) -> str:
    """A stable content address of an SMT mix cell.

    Same canonical-JSON-over-SHA-256 recipe as :func:`cell_fingerprint`,
    with a ``kind`` discriminator so an SMT cell can never collide with a
    single-thread cell, plus the mix, fetch policy and sharing mode.
    """
    payload = {
        "schema": _CACHE_SCHEMA,
        "kind": "smt",
        "version": _code_version(),
        "mix": cell.mix,
        "policy": cell.policy,
        "sharing": cell.sharing,
        "config": dict(_config_items(cell.config)),
        "seed": cell.effective_seed,
        "clock_gating": cell.clock_gating,
        "instructions": cell.instructions,
        "warmup": cell.warmup,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fingerprint_of(cell) -> str:
    """The content address of any cell kind."""
    if isinstance(cell, SmtCell):
        return smt_cell_fingerprint(cell)
    return cell_fingerprint(cell)


def execute_cell(cell):
    """Simulate any cell kind (the scheduler's per-cell work function)."""
    if isinstance(cell, SmtCell):
        return simulate_smt(cell)
    return simulate(cell)


def relabel(result, cell):
    """``result`` under ``cell``'s display label.

    Labels are display-only and excluded from fingerprints, so one
    simulated result serves every cell with its content address; each
    consumer (the scheduler's memo and in-call duplicates, the result cache)
    reapplies the requesting cell's label here.  SMT results carry no
    display label and pass through unchanged.
    """
    label = getattr(cell, "effective_label", None)
    if label is None or result.label == label:
        return result
    return replace(result, label=label)


def result_to_dict(result: SimulationResult) -> Dict:
    """A JSON-safe dict of every result field."""
    return {f.name: getattr(result, f.name) for f in fields(SimulationResult)}


def result_from_dict(payload: Dict) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    return SimulationResult(**payload)


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------

class ResultCache:
    """Content-addressed on-disk store of simulation results.

    One ``<cache_dir>/<fingerprint>.json`` file per entry; the
    fingerprint is the full :func:`cell_fingerprint`, so two distinct
    cells can never share an entry and any config change misses cleanly.
    Entries are written atomically (write-then-rename) so an interrupted
    campaign leaves no torn files behind.  Every :meth:`get` reads and
    parses the file, so each hit is a fresh object; in-process reuse is
    the :class:`~repro.experiments.scheduler.SweepScheduler` memo's job,
    which consults the disk only for fingerprints it has not settled.

    Session counters are per-instance and monotonic; :meth:`flush_stats`
    folds their growth since the last flush into a persistent
    ``_cache_stats.json`` sidecar (read-modify-write over a rename;
    concurrent flushers may drop each other's deltas, which is acceptable
    for monitoring counters), so ``repro cache info`` reports lifetime
    hit rate across runs — the shared-cache sizing signal the roadmap
    asks for.  The sidecar's leading underscore keeps it out of
    :meth:`entries` and :meth:`prune` (fingerprints are hex).
    """

    STATS_FILENAME = "_cache_stats.json"
    _PERSISTED = ("hits", "misses", "stores", "evictions")

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._flushed = {name: 0 for name in self._PERSISTED}
        os.makedirs(directory, exist_ok=True)

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.json")

    def get(self, cell, fingerprint: Optional[str] = None):
        """The cached result of any cell kind, relabelled for this request.

        ``fingerprint`` is the cell's :func:`fingerprint_of`, when the
        caller already has it (the scheduler keys its memo by it).  An
        unreadable entry — missing, truncated, of another schema, of
        another cell kind or with no ``kind`` at all, or without a
        well-formed ``result`` — is a miss, and the rerun's :meth:`put`
        replaces it.
        """
        is_smt = isinstance(cell, SmtCell)
        kind = "smt" if is_smt else "sim"
        try:
            with open(self._path(fingerprint or fingerprint_of(cell))) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = None
        result = None
        if (
            isinstance(payload, dict)
            and payload.get("schema") == _CACHE_SCHEMA
            and payload.get("kind") == kind
        ):
            from_dict = smt_result_from_dict if is_smt else result_from_dict
            try:
                result = from_dict(payload["result"])
            except (KeyError, TypeError):
                pass
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result if is_smt else relabel(result, cell)

    def put(self, cell, result, fingerprint: Optional[str] = None) -> None:
        """Store ``result`` as ``cell``'s entry (``fingerprint`` as in :meth:`get`)."""
        fingerprint = fingerprint or fingerprint_of(cell)
        path = self._path(fingerprint)
        if isinstance(cell, SmtCell):
            payload = {
                "schema": _CACHE_SCHEMA,
                "kind": "smt",
                "fingerprint": fingerprint,
                "mix": cell.mix,
                "policy": cell.policy,
                "result": smt_result_to_dict(result),
            }
        else:
            payload = {
                "schema": _CACHE_SCHEMA,
                "kind": "sim",
                "fingerprint": fingerprint,
                "benchmark": cell.benchmark,
                "controller_spec": list(cell.controller_spec),
                "result": result_to_dict(result),
            }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2)
        os.replace(tmp, path)
        self.stores += 1

    # -- persistent counters (telemetry + `repro cache info`) -----------

    def _stats_path(self) -> str:
        return os.path.join(self.directory, self.STATS_FILENAME)

    def persistent_stats(self) -> Dict[str, int]:
        """Lifetime counters from the on-disk sidecar (zeros if absent)."""
        stats = {name: 0 for name in self._PERSISTED}
        try:
            with open(self._stats_path()) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return stats
        for key in stats:
            value = payload.get(key)
            if isinstance(value, int) and value >= 0:
                stats[key] = value
        return stats

    def flush_stats(self) -> Dict[str, int]:
        """Fold session counter growth into the sidecar; returns totals."""
        stats = self.stats()
        totals = {name: stats[name] for name in self._PERSISTED}
        self._flushed = {name: getattr(self, name) for name in self._PERSISTED}
        path = self._stats_path()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(totals, handle, indent=2)
        os.replace(tmp, path)
        return totals

    def stats(self) -> Dict[str, float]:
        """Lifetime counters plus this session's unflushed growth."""
        stats: Dict[str, float] = dict(self.persistent_stats())
        for name in self._PERSISTED:
            stats[name] += getattr(self, name) - self._flushed[name]
        accesses = stats["hits"] + stats["misses"]
        stats["hit_rate"] = stats["hits"] / accesses if accesses else 0.0
        return stats

    # -- maintenance (the `repro cache` subcommands) --------------------

    def entries(self) -> List[str]:
        """Paths of every cache entry, sorted for deterministic output."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in names
            if name.endswith(".json") and not name.startswith("_")
        ]

    def info(self) -> Dict[str, float]:
        """Entry count, total bytes and age range of the cache directory."""
        now = time.time()
        count = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self.entries():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            count += 1
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
        return {
            "entries": count,
            "bytes": total_bytes,
            "oldest_age_days": (now - oldest) / 86400.0 if oldest else 0.0,
            "newest_age_days": (now - newest) / 86400.0 if newest else 0.0,
        }

    def prune(
        self,
        older_than_days: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict entries by age and/or total size; returns entries dropped.

        ``older_than_days`` drops entries last written more than N days
        ago; ``max_bytes`` then evicts the oldest surviving entries until
        the directory's entry bytes fit the bound (LRU by mtime).  At
        least one bound is required.  The age pass also sweeps orphaned
        ``*.json.tmp.<pid>`` files past the cutoff — the leftovers of a
        run killed between write and rename — which :meth:`entries`
        deliberately excludes (not counted in the return value).
        """
        if older_than_days is None and max_bytes is None:
            raise ExperimentError("prune needs an age and/or a size bound")
        if older_than_days is not None and older_than_days < 0:
            raise ExperimentError("prune age must be >= 0 days")
        if max_bytes is not None and max_bytes < 0:
            raise ExperimentError("prune size bound must be >= 0 bytes")
        dropped = 0
        if older_than_days is not None:
            cutoff = time.time() - older_than_days * 86400.0
            try:
                names = sorted(os.listdir(self.directory))
            except OSError:
                names = []
            for name in names:
                if name == self.STATS_FILENAME:  # the sidecar is not an entry
                    continue
                is_entry = name.endswith(".json")
                if not is_entry and ".json.tmp." not in name:
                    continue
                path = os.path.join(self.directory, name)
                try:
                    if os.stat(path).st_mtime < cutoff:
                        os.remove(path)
                        dropped += is_entry
                except OSError:
                    continue
        if max_bytes is not None:
            survivors = []
            total = 0
            for path in self.entries():
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                survivors.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            survivors.sort()
            for _, size, path in survivors:
                if total <= max_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                dropped += 1
        self.evictions += dropped
        return dropped
