"""The SMT core: N hardware threads over the shared back-end.

:class:`SmtProcessor` instantiates one
:class:`~repro.pipeline.processor.ThreadContext` per program — private
front-end (PC, predictor, confidence estimator, BTB, RAS, true-path
oracle) and private in-order commit — around the structures every SMT
design shares: the functional units, the cache hierarchy, the power model
and the pipeline widths.  A pluggable
:class:`~repro.smt.policies.FetchPolicy` arbitrates the single fetch port.

Back-end capacity is ``partitioned`` (each thread owns ``size / N`` ROB,
IQ and LSQ entries — Pentium-4 style, no cross-thread interference
through occupancy) or ``shared`` (each thread may fill the whole
structure, but dispatch enforces the *total* across threads — higher peak
utilisation, and a mis-speculating thread can crowd out its co-runners,
which is exactly the pathology confidence-driven fetch gating attacks).

With one program the SMT core degenerates to the baseline
:class:`~repro.pipeline.processor.Processor` code path cycle for cycle —
the parity test in ``tests/test_smt.py`` holds committed-instruction and
cycle counts exactly equal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.throttler import NullController, SpeculationController
from repro.errors import ConfigurationError, SimulationError
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor, ThreadContext
from repro.pipeline.stats import SimStats
from repro.power.model import ClockGatingStyle
from repro.program.cfg import Program
from repro.smt.policies import FetchPolicy, RoundRobinPolicy

SHARING_MODES = ("partitioned", "shared")


class SmtProcessor(Processor):
    """An N-thread SMT core over the Table-3 microarchitecture.

    ``programs`` and ``seeds`` run in lock step: thread *i* executes
    ``programs[i]`` with per-thread determinism from ``seeds[i]`` (derive
    them with :func:`repro.utils.rng.derive_thread_seed` so mixes are
    reproducible).  Each thread needs its own :class:`Program` instance —
    behaviour state lives inside the program, and two walkers cannot share
    one (build duplicates from the same spec for homogeneous mixes).
    """

    def __init__(
        self,
        config: ProcessorConfig,
        programs: Sequence[Program],
        seeds: Sequence[int],
        controllers: Optional[Sequence[SpeculationController]] = None,
        fetch_policy: Optional[FetchPolicy] = None,
        sharing: str = "partitioned",
        clock_gating: ClockGatingStyle = ClockGatingStyle.CC3,
    ) -> None:
        count = len(programs)
        if count < 1:
            raise ConfigurationError("an SMT core needs at least one thread")
        if len(seeds) != count:
            raise ConfigurationError(
                f"{count} programs but {len(seeds)} seeds"
            )
        if controllers is not None and len(controllers) != count:
            raise ConfigurationError(
                f"{count} programs but {len(controllers)} controllers"
            )
        if sharing not in SHARING_MODES:
            raise ConfigurationError(
                f"unknown sharing mode {sharing!r}; known: {', '.join(SHARING_MODES)}"
            )
        if len({id(program) for program in programs}) != count:
            raise ConfigurationError(
                "each thread needs its own Program instance "
                "(behaviour state is per-program)"
            )

        self._init_shared(config, clock_gating, attribute_threads=True)
        self.seed = seeds[0]
        self.sharing = sharing
        self.fetch_policy = fetch_policy or RoundRobinPolicy()

        if sharing == "partitioned":
            rob_size = max(8, config.rob_size // count)
            iq_size = max(4, config.iq_size // count)
            lsq_size = max(4, config.lsq_size // count)
        else:
            rob_size, iq_size, lsq_size = (
                config.rob_size, config.iq_size, config.lsq_size,
            )
            if count > 1:
                self.shared_caps = (
                    config.rob_size, config.iq_size, config.lsq_size,
                )
        fetch_buffer = max(config.fetch_width, config.effective_fetch_buffer // count)

        self.threads: List[ThreadContext] = [
            ThreadContext(
                thread_id,
                config,
                program,
                (controllers[thread_id] if controllers else NullController()),
                seeds[thread_id],
                rob_size=rob_size,
                iq_size=iq_size,
                lsq_size=lsq_size,
                fetch_buffer=fetch_buffer,
            )
            for thread_id, program in enumerate(programs)
        ]
        self._finish_threads()

    # ------------------------------------------------------------------
    # Driving: per-thread instruction targets
    # ------------------------------------------------------------------

    def run(self, max_instructions: int, warmup_instructions: int = 0) -> SimStats:
        """Simulate until *every* thread commits ``max_instructions``.

        The per-thread target (rather than a total) is the standard
        multi-program methodology: a starved thread cannot be papered over
        by a fast co-runner, and each thread's committed count is directly
        comparable to a single-threaded run of the same length.  Threads
        keep running (and keep committing) until the slowest one reaches
        the target; per-thread IPC uses the full committed count.
        """
        if max_instructions <= 0:
            raise SimulationError("max_instructions must be positive")
        if warmup_instructions:
            self._run_until_each(warmup_instructions)
            self.reset_measurement()
        self._run_until_each(max_instructions)
        return self.stats

    def _run_until_each(self, instructions: int) -> None:
        threads = self.threads
        targets = [thread.committed + instructions for thread in threads]
        limit = self.cycle + instructions * 400 * len(threads) + 100_000
        step = self._step
        # Step while the first thread short of its target stays short;
        # commit counts only grow, so the scan ends on the first cycle
        # every thread is at its target.
        while True:
            for lagging, goal in zip(threads, targets):
                if lagging.committed < goal:
                    break
            else:
                return
            while lagging.committed < goal:
                step()
                if self.cycle > limit:
                    done = [
                        thread.committed - target + instructions
                        for thread, target in zip(threads, targets)
                    ]
                    raise SimulationError(
                        f"no forward progress: per-thread commits {done} of "
                        f"{instructions} each after {self.cycle} cycles"
                    )
