"""Policy-space enumeration and Pareto analysis."""

import pytest

from repro.core.levels import BandwidthLevel
from repro.errors import ExperimentError
from repro.experiments.policy_search import (
    PolicyPoint,
    enumerate_policies,
    format_points,
    pareto_frontier,
)
from repro.studies import StudyContext, run_study
from repro.studies.library import policy_study


def test_enumeration_excludes_null_policy():
    for policy in enumerate_policies():
        lc = policy.action_for.__self__._actions  # noqa: SLF001 - test peeks
        assert not (
            policy.action_for(list(lc)[2]).is_null
            and policy.action_for(list(lc)[3]).is_null
        )


def test_enumeration_vlc_never_gentler_than_lc():
    from repro.confidence.base import ConfidenceLevel

    for policy in enumerate_policies():
        lc = policy.action_for(ConfidenceLevel.LC)
        vlc = policy.action_for(ConfidenceLevel.VLC)
        assert vlc.fetch >= lc.fetch
        assert vlc.decode >= lc.decode
        assert vlc.no_select or not lc.no_select


def test_enumeration_fetch_only_subspace():
    policies = enumerate_policies(include_decode=False, include_no_select=False)
    from repro.confidence.base import ConfidenceLevel

    for policy in policies:
        for level in (ConfidenceLevel.LC, ConfidenceLevel.VLC):
            action = policy.action_for(level)
            assert action.decode is BandwidthLevel.FULL
            assert not action.no_select
    # 4 fetch levels for LC x >= levels for VLC, minus the null pair: 9.
    assert len(policies) == 9


def test_enumeration_contains_the_paper_best():
    """C2 (LC fetch/4 + noselect, VLC stall + noselect-compatible) must be
    in the enumerated space."""
    names = {policy.name for policy in enumerate_policies()}
    assert "lc[fetch/4+noselect]-vlc[fetch=0+noselect]" in names


def _point(name, speedup, energy):
    return PolicyPoint(
        policy_name=name,
        speedup=speedup,
        power_savings_pct=0.0,
        energy_savings_pct=energy,
        ed_improvement_pct=0.0,
        ed2_improvement_pct=0.0,
    )


def test_dominance_requires_strict_improvement():
    a = _point("a", 0.95, 10.0)
    b = _point("b", 0.95, 10.0)
    assert not a.dominates(b)
    assert not b.dominates(a)


def test_pareto_frontier_filters_dominated():
    good = _point("good", 0.98, 12.0)
    dominated = _point("dominated", 0.95, 10.0)
    tradeoff = _point("tradeoff", 0.99, 8.0)
    frontier = pareto_frontier([good, dominated, tradeoff])
    names = {p.policy_name for p in frontier}
    assert names == {"good", "tradeoff"}


def test_pareto_frontier_sorted_by_speedup():
    points = [_point(str(i), 0.9 + i / 100, 12.0 - i) for i in range(4)]
    frontier = pareto_frontier(points)
    speeds = [p.speedup for p in frontier]
    assert speeds == sorted(speeds, reverse=True)


def test_pareto_frontier_rejects_empty():
    with pytest.raises(ExperimentError):
        pareto_frontier([])


def test_format_points_orders_by_ed():
    a = _point("worse", 0.9, 5.0)
    b = _point("better", 0.95, 8.0)
    object.__setattr__(a, "ed_improvement_pct", 1.0)
    object.__setattr__(b, "ed_improvement_pct", 5.0)
    text = format_points([a, b])
    assert text.index("better") < text.index("worse")


def test_search_evaluates_small_space():
    policies = enumerate_policies(include_decode=False, include_no_select=False)
    points = run_study(
        policy_study(policies[:3], benchmarks=("gzip",)),
        StudyContext(instructions=1_500, warmup=500),
    ).artifact
    assert len(points) == 3
    for point in points:
        assert 0.2 < point.speedup <= 1.2
    frontier = pareto_frontier(points)
    assert frontier
