"""Result records and the paper's comparison metrics.

The paper evaluates four quantities per configuration (§5.1):

* **speedup** — relative performance (execution-time ratio; < 1 means the
  mechanism slowed the machine down),
* **power savings** — percent reduction in average instantaneous power,
* **energy savings** — percent reduction in total energy (power x time),
* **energy-delay improvement** — percent reduction in the E-D product
  (energy x time), the high-performance-systems metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ExperimentError


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one simulation run."""

    benchmark: str
    label: str
    instructions: int
    cycles: int
    ipc: float
    average_power_watts: float
    energy_joules: float
    execution_seconds: float
    miss_rate: float
    spec_metric: float
    pvn_metric: float
    wrong_path_fetch_fraction: float
    wasted_energy_fraction: float
    breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ComparisonResult:
    """One configuration measured against the baseline (paper Figs. 3-7)."""

    benchmark: str
    label: str
    speedup: float
    power_savings_pct: float
    energy_savings_pct: float
    ed_improvement_pct: float


def compare(baseline: SimulationResult, candidate: SimulationResult) -> ComparisonResult:
    """Compute the paper's four metrics of ``candidate`` vs ``baseline``."""
    if baseline.benchmark != candidate.benchmark:
        raise ExperimentError(
            f"comparing different benchmarks: {baseline.benchmark} vs {candidate.benchmark}"
        )
    # Runs stop at commit-width granularity, so lengths can differ by a few
    # instructions; metrics are normalised per instruction to compensate.
    mismatch = abs(baseline.instructions - candidate.instructions)
    if mismatch > 0.01 * baseline.instructions:
        raise ExperimentError(
            f"comparing {candidate.label!r} with {baseline.label!r} on "
            f"{baseline.benchmark}: the runs have very different lengths "
            f"({baseline.instructions} vs {candidate.instructions} "
            "instructions, more than 1% apart). A run stops at commit-width "
            "granularity, up to commit width - 1 instructions past its "
            "target, so runs shorter than about 100 x (commit width - 1) "
            "instructions (700 on the Table 3 core) can miss the 1% bound; "
            "run longer."
        )
    if baseline.execution_seconds <= 0 or baseline.energy_joules <= 0:
        raise ExperimentError("degenerate baseline run")
    base_time = baseline.execution_seconds / baseline.instructions
    cand_time = candidate.execution_seconds / candidate.instructions
    base_energy = baseline.energy_joules / baseline.instructions
    cand_energy = candidate.energy_joules / candidate.instructions
    speedup = base_time / cand_time
    power_savings = 100.0 * (
        1.0 - candidate.average_power_watts / baseline.average_power_watts
    )
    energy_savings = 100.0 * (1.0 - cand_energy / base_energy)
    ed_improvement = 100.0 * (
        1.0 - (cand_energy * cand_time) / (base_energy * base_time)
    )
    return ComparisonResult(
        benchmark=baseline.benchmark,
        label=candidate.label,
        speedup=speedup,
        power_savings_pct=power_savings,
        energy_savings_pct=energy_savings,
        ed_improvement_pct=ed_improvement,
    )
