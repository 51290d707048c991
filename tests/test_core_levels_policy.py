"""Tests for throttle levels and the named experiment policies."""

import pytest

from repro.confidence.base import ConfidenceLevel
from repro.core.levels import ACTIVE_WHEEL_MASKS, BandwidthLevel, next_wheel_active
from repro.core.policy import (
    FIGURE3_EXPERIMENTS,
    FIGURE4_EXPERIMENTS,
    FIGURE5_EXPERIMENTS,
    GATING_EXPERIMENTS,
    ThrottleAction,
    ThrottlePolicy,
    experiment_policy,
    list_experiments,
)
from repro.errors import ExperimentError
from tests.conftest import level_active


# --- levels -------------------------------------------------------------

def test_full_always_active():
    assert all(level_active(BandwidthLevel.FULL, c) for c in range(8))


def test_half_alternates():
    pattern = [level_active(BandwidthLevel.HALF, c) for c in range(6)]
    assert pattern == [True, False, True, False, True, False]


def test_quarter_one_in_four():
    active = [c for c in range(16) if level_active(BandwidthLevel.QUARTER, c)]
    assert active == [0, 4, 8, 12]


def test_stall_never_active():
    assert not any(level_active(BandwidthLevel.STALL, c) for c in range(16))


@pytest.mark.parametrize("level", list(BandwidthLevel), ids=lambda level: level.name)
def test_wheel_masks_follow_the_reference_schedule(level):
    mask = ACTIVE_WHEEL_MASKS[level]
    for cycle in range(16):
        assert bool((mask >> (cycle & 3)) & 1) == level_active(level, cycle)
        if level is not BandwidthLevel.STALL:
            first = next_wheel_active(mask, cycle)
            assert level_active(level, first)
            assert not any(level_active(level, c) for c in range(cycle, first))


def test_most_restrictive_ordering():
    # The escalate rule keeps the greater level: greater is more aggressive.
    assert max(BandwidthLevel.HALF, BandwidthLevel.STALL) is BandwidthLevel.STALL
    assert max(BandwidthLevel.QUARTER, BandwidthLevel.FULL) is BandwidthLevel.QUARTER


def test_describe_labels():
    assert BandwidthLevel.HALF.describe() == "/2"
    assert BandwidthLevel.STALL.describe() == "=0"


# --- actions / policies ---------------------------------------------------

def test_null_action():
    assert ThrottleAction().is_null
    assert not ThrottleAction(fetch=BandwidthLevel.HALF).is_null
    assert not ThrottleAction(no_select=True).is_null


def test_action_describe():
    action = ThrottleAction(BandwidthLevel.QUARTER, BandwidthLevel.STALL, True)
    assert action.describe() == "fetch/4+decode=0+noselect"
    assert ThrottleAction().describe() == "none"


def test_policy_high_confidence_default_null():
    policy = ThrottlePolicy("t", lc=ThrottleAction(BandwidthLevel.HALF),
                            vlc=ThrottleAction(BandwidthLevel.STALL))
    assert policy.action_for(ConfidenceLevel.VHC).is_null
    assert policy.action_for(ConfidenceLevel.HC).is_null
    assert policy.action_for(ConfidenceLevel.LC).fetch is BandwidthLevel.HALF
    assert policy.action_for(ConfidenceLevel.VLC).fetch is BandwidthLevel.STALL


# --- experiment tables ------------------------------------------------------

def test_figure3_transcription():
    a5 = FIGURE3_EXPERIMENTS["A5"]
    assert a5.action_for(ConfidenceLevel.LC).fetch is BandwidthLevel.QUARTER
    assert a5.action_for(ConfidenceLevel.VLC).fetch is BandwidthLevel.STALL
    a6 = FIGURE3_EXPERIMENTS["A6"]
    assert a6.action_for(ConfidenceLevel.LC).fetch is BandwidthLevel.STALL
    assert FIGURE3_EXPERIMENTS["A7"] is None  # Pipeline Gating


def test_figure4_vlc_always_stalls_fetch():
    for name, policy in FIGURE4_EXPERIMENTS.items():
        if policy is None:
            continue
        assert policy.action_for(ConfidenceLevel.VLC).fetch is BandwidthLevel.STALL, name


def test_figure4_b1_decode_only():
    b1 = FIGURE4_EXPERIMENTS["B1"]
    lc = b1.action_for(ConfidenceLevel.LC)
    assert lc.fetch is BandwidthLevel.FULL
    assert lc.decode is BandwidthLevel.HALF


def test_figure5_noselect_pairs():
    for plain, with_sel in (("C1", "C2"), ("C3", "C4"), ("C5", "C6")):
        base = FIGURE5_EXPERIMENTS[plain].action_for(ConfidenceLevel.LC)
        sel = FIGURE5_EXPERIMENTS[with_sel].action_for(ConfidenceLevel.LC)
        assert not base.no_select
        assert sel.no_select
        assert base.fetch is sel.fetch
        assert base.decode is sel.decode


def test_figure5_c2_matches_paper_best():
    c2 = FIGURE5_EXPERIMENTS["C2"]
    lc = c2.action_for(ConfidenceLevel.LC)
    vlc = c2.action_for(ConfidenceLevel.VLC)
    assert lc.fetch is BandwidthLevel.QUARTER and lc.no_select
    assert vlc.fetch is BandwidthLevel.STALL


def test_experiment_lookup():
    assert experiment_policy("A5").name == "A5"
    assert experiment_policy("A7") is None
    with pytest.raises(ExperimentError):
        experiment_policy("Z9")


def test_list_experiments_complete():
    names = list_experiments()
    assert len(names) == 7 + 9 + 7
    assert GATING_EXPERIMENTS == {"A7", "B9", "C7"}


def test_policy_describe_mentions_actions():
    text = repr(experiment_policy("C2"))
    assert "fetch/4" in text and "noselect" in text
