"""The paper's figures (1, 3, 4, 5, 6, 7): result type and text forms.

A mechanism grid (figures 1/3/4/5 and the ablation grids) summarises to
a :class:`FigureResult`: per-benchmark
:class:`~repro.experiments.results.ComparisonResult` rows for every curve
of the figure, plus suite averages — the numbers the paper plots.  A
configuration sweep (figures 6/7) summarises to ``point -> suite
averages``.  The figures themselves are registered
:class:`~repro.studies.spec.StudySpec` grids (see
:mod:`repro.studies.library`); run one with
``run_study(get_study("figure3"), context)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.experiments.results import ComparisonResult
from repro.utils.stats import arithmetic_mean, geometric_mean

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
    """Render a figure 6/7 configuration sweep as an aligned text table."""
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
