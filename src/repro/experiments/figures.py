"""Regeneration of the paper's figures (1, 3, 4, 5, 6, 7).

Every function returns a :class:`FigureResult`: per-benchmark
:class:`~repro.experiments.results.ComparisonResult` rows for every curve
of the figure, plus suite averages — the numbers the paper plots.

The figures are :class:`~repro.studies.spec.StudySpec` grids (see
:mod:`repro.studies.library`); the functions here are thin entry points
that execute the corresponding study through a runner's memo (figures
1/3/4/5) or a batched scheduler (the figure 6/7 configuration sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.results import ComparisonResult
from repro.experiments.runner import ControllerSpec, ExperimentRunner
from repro.utils.stats import arithmetic_mean, geometric_mean

# Paper averages for quick shape checks (the benchmarks/bench_fig*.py
# docstrings quote the per-figure claims).
PAPER_FIGURE1 = {
    "oracle-fetch": {"speedup": 1.05, "power": 21.0, "energy": 24.0, "ed": 28.0},
}


@dataclass
class FigureResult:
    """All measurements of one figure."""

    name: str
    # experiment label -> benchmark -> comparison
    rows: Dict[str, Dict[str, ComparisonResult]] = field(default_factory=dict)

    def average(self, label: str) -> Dict[str, float]:
        """Suite averages of the four paper metrics for one experiment."""
        comparisons = list(self.rows[label].values())
        return {
            "speedup": geometric_mean(max(1e-9, c.speedup) for c in comparisons),
            "power_savings_pct": arithmetic_mean(
                c.power_savings_pct for c in comparisons
            ),
            "energy_savings_pct": arithmetic_mean(
                c.energy_savings_pct for c in comparisons
            ),
            "ed_improvement_pct": arithmetic_mean(
                c.ed_improvement_pct for c in comparisons
            ),
        }

    def averages(self) -> Dict[str, Dict[str, float]]:
        """Suite averages for every experiment of the figure."""
        return {label: self.average(label) for label in self.rows}


def _run_figure_study(
    study,
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Execute a mechanism-grid study through a runner's memo."""
    from repro.studies.spec import StudyContext, run_study

    runner = runner or ExperimentRunner()
    context = StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=runner.instructions,
        warmup=runner.warmup,
        config=runner.config,
    )
    return run_study(study, context, executor=runner).artifact


def _run_figure(
    name: str,
    experiments: Dict[str, ControllerSpec],
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Build and execute an ad-hoc mechanism grid (one-off comparisons)."""
    from repro.studies.library import grid_study

    return _run_figure_study(grid_study(name, experiments), runner, benchmarks)


def figure1(runner: Optional[ExperimentRunner] = None, **kwargs) -> FigureResult:
    """Oracle fetch / decode / select limit studies (paper Figure 1)."""
    from repro.studies.library import FIGURE1_EXPERIMENTS

    return _run_figure("figure1", FIGURE1_EXPERIMENTS, runner, **kwargs)


def figure3(runner: Optional[ExperimentRunner] = None, **kwargs) -> FigureResult:
    """Fetch throttling A1-A6 plus Pipeline Gating A7 (paper Figure 3)."""
    from repro.studies.library import FIGURE3_EXPERIMENTS

    return _run_figure("figure3", FIGURE3_EXPERIMENTS, runner, **kwargs)


def figure4(runner: Optional[ExperimentRunner] = None, **kwargs) -> FigureResult:
    """Decode throttling B1-B8 plus Pipeline Gating B9 (paper Figure 4)."""
    from repro.studies.library import FIGURE4_EXPERIMENTS

    return _run_figure("figure4", FIGURE4_EXPERIMENTS, runner, **kwargs)


def figure5(runner: Optional[ExperimentRunner] = None, **kwargs) -> FigureResult:
    """Selection throttling C1-C6 plus Pipeline Gating C7 (paper Figure 5)."""
    from repro.studies.library import FIGURE5_EXPERIMENTS

    return _run_figure("figure5", FIGURE5_EXPERIMENTS, runner, **kwargs)


def _run_config_sweep(study, instructions, benchmarks, jobs, cache):
    """Execute a figure 6/7 sweep study in one batched scheduler pass."""
    from repro.experiments.scheduler import SweepScheduler
    from repro.studies.spec import StudyContext, run_study

    context = StudyContext(
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        instructions=instructions,
    )
    scheduler = SweepScheduler(jobs=jobs, cache=cache)
    return run_study(study, context, executor=scheduler).artifact


def figure6(
    depths: Sequence[int] = (6, 10, 14, 20, 24, 28),
    instructions: Optional[int] = None,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache=None,
) -> Dict[int, Dict[str, float]]:
    """Pipeline-depth sweep of the best experiment C2 (paper Figure 6).

    Returns ``depth -> suite-average metrics of C2 vs the same-depth
    baseline``.  All depths compile into one study plan, so ``jobs`` > 1
    parallelises across the whole sweep, not within one depth.
    """
    from repro.studies.library import depth_sweep_study

    return _run_config_sweep(
        depth_sweep_study(depths), instructions, benchmarks, jobs, cache
    )


def figure7(
    total_sizes_kb: Sequence[int] = (8, 16, 32, 64),
    instructions: Optional[int] = None,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache=None,
) -> Dict[int, Dict[str, float]]:
    """Predictor+estimator size sweep of C2 (paper Figure 7).

    Each point splits the total budget half/half between the gshare and the
    BPRU estimator, comparing against a baseline whose gshare gets the same
    predictor half (the paper compares equal total sizes).
    """
    from repro.studies.library import table_size_sweep_study

    return _run_config_sweep(
        table_size_sweep_study(total_sizes_kb), instructions, benchmarks,
        jobs, cache,
    )


def format_figure(figure: FigureResult) -> str:
    """Render a figure's suite averages as an aligned text table."""
    lines = [
        f"{figure.name}: suite averages",
        f"{'experiment':14s} {'speedup':>8s} {'power%':>8s} {'energy%':>8s} {'E-D%':>8s}",
    ]
    for label in figure.rows:
        avg = figure.average(label)
        lines.append(
            f"{label:14s} {avg['speedup']:8.3f} {avg['power_savings_pct']:8.2f} "
            f"{avg['energy_savings_pct']:8.2f} {avg['ed_improvement_pct']:8.2f}"
        )
    return "\n".join(lines)


def format_sweep(name: str, sweep: Dict[int, Dict[str, float]], unit: str) -> str:
    """Render figure6()/figure7() sweeps as an aligned text table."""
    lines = [
        f"{name}: suite averages per {unit}",
        f"{unit:>10s} {'speedup':>8s} {'power%':>8s} {'energy%':>8s} {'E-D%':>8s}",
    ]
    for point, avg in sweep.items():
        lines.append(
            f"{point:10d} {avg['speedup']:8.3f} {avg['power_savings_pct']:8.2f} "
            f"{avg['energy_savings_pct']:8.2f} {avg['ed_improvement_pct']:8.2f}"
        )
    return "\n".join(lines)
