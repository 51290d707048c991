"""Running benchmarks under speculation-control configurations.

A :class:`ControllerSpec` names one mechanism:

* ``("baseline",)`` — no throttling;
* ``("throttle", "C2")`` — Selective Throttling under a named experiment
  policy (the runner selects the BPRU estimator, as the paper does);
* ``("throttle", "C2", "jrs")`` — the same mechanism driven by a different
  confidence estimator (the estimator-swap ablation);
* ``("throttle-noescalate", "C2")`` — Selective Throttling with the paper's
  escalate-only rule (§4.2) disabled (the escalation ablation);
* ``("gating", 2)`` — Pipeline Gating at a gating threshold (the runner
  selects the JRS estimator at MDC threshold 12, as the paper does);
* ``("oracle", "fetch"|"decode"|"select")`` — the Figure 1 limit studies.

Execution itself lives in :mod:`repro.experiments.engine` — this module
is the convenience layer: :func:`run_benchmark` for one-off runs and
:class:`ExperimentRunner`, which memoises results per cell fingerprint
(every figure compares many mechanisms against the same baseline) and
fans batches out across processes through its
:class:`~repro.experiments.scheduler.SweepScheduler`.

Run lengths default to :func:`default_instructions` /
:func:`default_warmup`, overridable with the environment variables
``REPRO_SIM_INSTRUCTIONS`` and ``REPRO_SIM_WARMUP`` — raise them for
higher-fidelity (slower) reproductions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.engine import (
    ControllerSpec,
    ResultCache,
    SimCell,
    default_instructions,
    default_warmup,
    fingerprint_of,
    make_cell,
    make_controller,
    relabel,
    simulate,
)
from repro.experiments.results import SimulationResult
from repro.experiments.scheduler import SweepScheduler
from repro.pipeline.config import ProcessorConfig, table3_config


def run_benchmark(
    benchmark: str,
    controller_spec: ControllerSpec = ("baseline",),
    config: Optional[ProcessorConfig] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    label: Optional[str] = None,
    seed: Optional[int] = None,
    clock_gating: str = "cc3",
) -> SimulationResult:
    """Simulate one benchmark under one mechanism and collect results.

    ``seed`` overrides the benchmark's calibrated program seed; it drives
    both program generation and the processor (the engine's single seed
    convention).
    """
    return simulate(
        make_cell(
            benchmark,
            controller_spec,
            config=config,
            instructions=instructions,
            warmup=warmup,
            seed=seed,
            clock_gating=clock_gating,
            label=label,
        )
    )


class ExperimentRunner:
    """Runs (benchmark x mechanism) simulations with baseline memoisation.

    ``jobs`` and ``cache`` configure the underlying
    :class:`~repro.experiments.scheduler.SweepScheduler`: batches submitted
    through :meth:`prefetch` fan out over processes, and an on-disk
    :class:`~repro.experiments.engine.ResultCache` persists results
    across interpreter restarts.
    """

    def __init__(
        self,
        config: Optional[ProcessorConfig] = None,
        instructions: Optional[int] = None,
        warmup: Optional[int] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config or table3_config()
        self.instructions = instructions or default_instructions()
        self.warmup = default_warmup() if warmup is None else warmup
        self.scheduler = SweepScheduler(jobs=jobs, cache=cache)
        self._cache: Dict[str, object] = {}

    def _cell(
        self,
        benchmark: str,
        controller_spec: ControllerSpec,
        config: Optional[ProcessorConfig],
        label: Optional[str] = None,
    ) -> SimCell:
        return make_cell(
            benchmark,
            controller_spec,
            config=config or self.config,
            instructions=self.instructions,
            warmup=self.warmup,
            label=label,
        )

    def run_cells(self, cells: Sequence) -> List:
        """Run a batch of cells: memo first, then one scheduler batch.

        This is the executor protocol study plans run through (shared
        with :class:`~repro.experiments.scheduler.SweepScheduler`).
        Batches may mix cell kinds — :class:`SimCell` and ``SmtCell``
        share the memo and the scheduler.  The memo is keyed by content
        fingerprint and stores results as they were settled; every hit
        is relabelled for the requesting cell, so a custom display label
        never leaks into later lookups.
        """
        out: List = [None] * len(cells)
        pending: List[Tuple[int, str, object]] = []
        for index, cell in enumerate(cells):
            key = fingerprint_of(cell)
            hit = self._cache.get(key)
            if hit is not None:
                out[index] = relabel(hit, cell)
            else:
                pending.append((index, key, cell))
        if pending:
            fresh = self.scheduler.run([cell for _, _, cell in pending])
            for (index, key, _), result in zip(pending, fresh):
                self._cache[key] = result
                out[index] = result
        return out

    def run(
        self,
        benchmark: str,
        controller_spec: ControllerSpec = ("baseline",),
        config: Optional[ProcessorConfig] = None,
        label: Optional[str] = None,
    ) -> SimulationResult:
        """Run one simulation (memoised on its full fingerprint)."""
        cell = self._cell(benchmark, controller_spec, config, label=label)
        return self.run_cells([cell])[0]

    def prefetch(
        self,
        requests: Iterable[Tuple[str, ControllerSpec]],
        config: Optional[ProcessorConfig] = None,
    ) -> List[SimulationResult]:
        """Run a batch of (benchmark, spec) cells through the scheduler.

        Uncached cells run in one scheduler batch — in parallel when the
        runner was built with ``jobs`` > 1 — and land in the memo, so
        subsequent :meth:`run` calls on the same cells are free.  Results
        come back in request order.
        """
        return self.run_cells([self._cell(b, spec, config) for b, spec in requests])

    def baseline(self, benchmark: str, config: Optional[ProcessorConfig] = None):
        """The memoised baseline run of a benchmark."""
        return self.run(benchmark, ("baseline",), config=config)
