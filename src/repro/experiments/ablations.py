"""Ablation studies beyond the paper's own experiments.

Each function isolates one design choice of Selective Throttling:

* :func:`estimator_swap` — C2 driven by BPRU (the paper's choice) versus
  JRS versus a perfect oracle estimator.  Measures how much of C2's win
  comes from the four-level BPRU categorisation.
* :func:`escalation_rule` — the paper's escalate-only rule (§4.2: an armed
  heuristic may be replaced by a more restrictive one, never a less
  restrictive one) on versus off.
* :func:`gating_threshold_sweep` — Pipeline Gating at thresholds 1-4 (the
  paper fixes N=2 following Manne et al.).
* :func:`clock_gating_styles` — the baseline's power breakdown under
  Wattch's cc0-cc3 conditional-clocking styles (the paper uses cc3).
* :func:`mshr_sensitivity` — the §3 resource-waste channel vs MSHR count.

Every ablation is a :class:`~repro.studies.spec.StudySpec` (see
:mod:`repro.studies.library`); the functions here bind the study to a
runner or scheduler and return its artifact — plain dictionaries or
:class:`~repro.experiments.figures.FigureResult` grids, printable with
:func:`repro.experiments.figures.format_figure` conventions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.figures import FigureResult, _run_figure_study
from repro.experiments.runner import ExperimentRunner


def estimator_swap(
    runner: Optional[ExperimentRunner] = None,
    policy: str = "C2",
    benchmarks: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Selective Throttling under different confidence estimators.

    The JRS variant only ever produces HC/LC labels (it is a binary
    estimator), so the policy's VLC action never fires — exactly the
    degradation the paper's four-level categorisation was designed to
    avoid.  The perfect variant bounds what any estimator could achieve.
    """
    from repro.studies.library import estimator_swap_study

    return _run_figure_study(estimator_swap_study(policy), runner, benchmarks)


def escalation_rule(
    runner: Optional[ExperimentRunner] = None,
    policy: str = "C2",
    benchmarks: Optional[Sequence[str]] = None,
) -> FigureResult:
    """The paper's escalate-only rule on vs off for one policy."""
    from repro.studies.library import escalation_rule_study

    return _run_figure_study(escalation_rule_study(policy), runner, benchmarks)


def gating_threshold_sweep(
    runner: Optional[ExperimentRunner] = None,
    thresholds: Sequence[int] = (1, 2, 3, 4),
    benchmarks: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Pipeline Gating at a range of gating thresholds."""
    from repro.studies.library import gating_threshold_study

    return _run_figure_study(gating_threshold_study(thresholds), runner, benchmarks)


def clock_gating_styles(
    instructions: int = 12_000,
    warmup: int = 4_000,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Baseline power under each Wattch conditional-clocking style.

    Returns ``style -> {average_power_watts, wasted_fraction}`` averaged
    over the suite.  cc0 burns maximum power everywhere; cc1/cc2 gate
    progressively harder; cc3 (the paper's style) is cc2 plus a 10% idle
    floor.
    """
    from repro.studies.library import clock_gating_study
    from repro.studies.spec import StudyContext, run_study

    context = StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=instructions,
        warmup=warmup,
    )
    return run_study(clock_gating_study(), context).artifact


def mshr_sensitivity(
    counts: Sequence[int] = (2, 4, 8, 16),
    instructions: int = 12_000,
    warmup: int = 4_000,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[int, Dict[str, float]]:
    """Baseline IPC and oracle-fetch speedup versus MSHR count.

    Fewer MSHRs make wrong-path misses costlier to the true path (fills
    are never cancelled), widening the oracle-fetch gap — the
    resource-waste channel of the paper's §3.
    """
    from repro.studies.library import mshr_study
    from repro.studies.spec import StudyContext, run_study

    context = StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=instructions,
        warmup=warmup,
    )
    return run_study(mshr_study(counts), context).artifact
