"""Shared configuration for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper and prints it
paper-style.  Run lengths are deliberately modest so the whole harness
completes on a laptop; raise them for a higher-fidelity pass::

    REPRO_BENCH_INSTRUCTIONS=60000 REPRO_BENCH_WARMUP=20000 \
        pytest benchmarks/ --benchmark-only -s

Each figure is its registered study run on a sweep scheduler:
``REPRO_BENCH_JOBS=8`` fans each figure's simulations out over processes,
and ``REPRO_BENCH_CACHE_DIR=DIR`` persists per-simulation results so
reruns only time what changed.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import pytest

from repro.experiments.engine import ResultCache
from repro.experiments.scheduler import SweepScheduler
from repro.studies import StudyContext, StudyRun, StudySpec, run_study


def bench_instructions() -> int:
    """Measured instructions per simulation in the benchmark harness."""
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "12000"))


def bench_warmup() -> int:
    """Warm-up instructions per simulation in the benchmark harness."""
    return int(os.environ.get("REPRO_BENCH_WARMUP", "4000"))


def bench_jobs() -> int:
    """Parallel simulation processes in the benchmark harness."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_cache() -> Optional[ResultCache]:
    """The on-disk result cache of the harness (None when unset)."""
    directory = os.environ.get("REPRO_BENCH_CACHE_DIR")
    return ResultCache(directory) if directory else None


def bench_context(benchmarks: Optional[Sequence[str]] = None) -> StudyContext:
    """Benchmark-scale run lengths over ``benchmarks`` (default: all)."""
    return StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=bench_instructions(),
        warmup=bench_warmup(),
    )


@pytest.fixture()
def scheduler() -> SweepScheduler:
    """A fresh sweep scheduler with the harness's jobs and cache."""
    return SweepScheduler(jobs=bench_jobs(), cache=bench_cache())


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are long simulations; repeating them inside the
    benchmark loop would multiply minutes of runtime for no statistical
    benefit, so every figure is timed as a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def run_study_once(
    benchmark,
    scheduler: SweepScheduler,
    spec: StudySpec,
    context: Optional[StudyContext] = None,
) -> StudyRun:
    """Run one study exactly once under pytest-benchmark timing."""
    context = context or bench_context()
    return run_once(
        benchmark, lambda: run_study(spec, context, executor=scheduler)
    )
