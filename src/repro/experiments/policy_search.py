"""Systematic exploration of the throttle-policy space.

The paper hand-picks 22 points (A1-A6, B1-B8, C1-C6) out of the full
policy space — every assignment of {full, half, quarter, stall} fetch and
decode bandwidths plus the no-select bit to the LC and VLC levels.  This
module enumerates that space and extracts the Pareto frontier over
(performance, energy); ``policy_study`` in :mod:`repro.studies.library`
evaluates a policy set (the registered ``policy-frontier`` study is the
fetch-only subspace).  Together they answer two questions the paper
leaves open:

* is C2 actually Pareto-optimal on this substrate, or just good?
* what does the whole frontier look like between "never throttle" and
  "gate everything"?

Energy-delay-squared (ED²) is also reported: for high-frequency designs
it weights performance even harder than the paper's E-D metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.levels import BandwidthLevel
from repro.core.policy import ThrottleAction, ThrottlePolicy
from repro.errors import ExperimentError
from repro.experiments.results import SimulationResult

_BANDWIDTHS = (
    BandwidthLevel.FULL,
    BandwidthLevel.HALF,
    BandwidthLevel.QUARTER,
    BandwidthLevel.STALL,
)


def enumerate_policies(
    vlc_fetch_at_least: BandwidthLevel = BandwidthLevel.FULL,
    include_decode: bool = True,
    include_no_select: bool = True,
) -> List[ThrottlePolicy]:
    """Every distinct (LC action, VLC action) policy, minus null/dominated.

    Constraints mirror the paper's construction: the VLC action is never
    *less* restrictive than the LC action in any dimension (a branch the
    estimator is surer will mispredict must not be treated more gently).
    """
    decode_options = _BANDWIDTHS if include_decode else (BandwidthLevel.FULL,)
    select_options = (False, True) if include_no_select else (False,)
    actions = [
        ThrottleAction(fetch, decode, no_select)
        for fetch, decode, no_select in itertools.product(
            _BANDWIDTHS, decode_options, select_options
        )
    ]
    policies = []
    for lc, vlc in itertools.product(actions, actions):
        if lc.is_null and vlc.is_null:
            continue
        if vlc.fetch < lc.fetch or vlc.decode < lc.decode:
            continue
        if lc.no_select and not vlc.no_select:
            continue
        if vlc.fetch < vlc_fetch_at_least:
            continue
        name = f"lc[{lc.describe()}]-vlc[{vlc.describe()}]"
        policies.append(ThrottlePolicy(name, lc=lc, vlc=vlc))
    return policies


@dataclass(frozen=True)
class PolicyPoint:
    """Suite-average outcome of one policy."""

    policy_name: str
    speedup: float
    power_savings_pct: float
    energy_savings_pct: float
    ed_improvement_pct: float
    ed2_improvement_pct: float

    def dominates(self, other: "PolicyPoint") -> bool:
        """Pareto dominance over (speedup, energy savings)."""
        at_least = (
            self.speedup >= other.speedup
            and self.energy_savings_pct >= other.energy_savings_pct
        )
        strictly = (
            self.speedup > other.speedup
            or self.energy_savings_pct > other.energy_savings_pct
        )
        return at_least and strictly


def _ed2_improvement(baseline: SimulationResult, candidate: SimulationResult) -> float:
    base = (
        baseline.energy_joules
        / baseline.instructions
        * (baseline.execution_seconds / baseline.instructions) ** 2
    )
    cand = (
        candidate.energy_joules
        / candidate.instructions
        * (candidate.execution_seconds / candidate.instructions) ** 2
    )
    return 100.0 * (1.0 - cand / base)


def pareto_frontier(points: Sequence[PolicyPoint]) -> List[PolicyPoint]:
    """Non-dominated subset over (speedup, energy savings)."""
    if not points:
        raise ExperimentError("no policy points to filter")
    frontier = [
        point
        for point in points
        if not any(other.dominates(point) for other in points)
    ]
    frontier.sort(key=lambda p: -p.speedup)
    return frontier


def format_points(points: Sequence[PolicyPoint], limit: int = 30) -> str:
    """Aligned table of policy points, best energy-delay first."""
    ordered = sorted(points, key=lambda p: -p.ed_improvement_pct)[:limit]
    lines = [
        f"{'policy':42s} {'speedup':>8s} {'power%':>8s} "
        f"{'energy%':>8s} {'E-D%':>7s} {'E-D2%':>7s}"
    ]
    for point in ordered:
        lines.append(
            f"{point.policy_name:42s} {point.speedup:8.3f} "
            f"{point.power_savings_pct:8.2f} {point.energy_savings_pct:8.2f} "
            f"{point.ed_improvement_pct:7.2f} {point.ed2_improvement_pct:7.2f}"
        )
    return "\n".join(lines)
