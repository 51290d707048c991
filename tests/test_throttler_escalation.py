"""The escalate-only rule (§4.2) and its ablation in SelectiveThrottler."""

from repro.confidence.base import ConfidenceLevel
from repro.core.levels import BandwidthLevel
from repro.core.policy import ThrottleAction, ThrottlePolicy
from repro.core.throttler import SelectiveThrottler
from repro.isa.instruction import DynamicInstruction
from repro.isa.opcodes import Opcode
from repro.isa.instruction import StaticInstruction
from tests.conftest import dynamic_instruction


def _policy() -> ThrottlePolicy:
    return ThrottlePolicy(
        "test",
        lc=ThrottleAction(fetch=BandwidthLevel.QUARTER),
        vlc=ThrottleAction(fetch=BandwidthLevel.STALL),
    )


def _branch(seq: int) -> DynamicInstruction:
    return dynamic_instruction(
        seq, StaticInstruction(seq * 4, Opcode.BR_COND, sources=(1,))
    )


def _stalled_everywhere(throttler: SelectiveThrottler) -> bool:
    return all(not throttler.fetch_allowed(cycle) for cycle in range(8))


def test_escalate_only_keeps_most_restrictive():
    throttler = SelectiveThrottler(_policy())
    vlc = _branch(1)
    lc = _branch(2)
    throttler.on_branch_fetched(vlc, ConfidenceLevel.VLC)
    assert _stalled_everywhere(throttler)
    # A later, *less* restrictive LC trigger must not relax the stall.
    throttler.on_branch_fetched(lc, ConfidenceLevel.LC)
    assert _stalled_everywhere(throttler)


def test_ablation_latest_wins_deescalates():
    throttler = SelectiveThrottler(_policy(), escalate_only=False)
    vlc = _branch(1)
    lc = _branch(2)
    throttler.on_branch_fetched(vlc, ConfidenceLevel.VLC)
    assert _stalled_everywhere(throttler)
    throttler.on_branch_fetched(lc, ConfidenceLevel.LC)
    # Latest trigger is fetch/4: one in four cycles is active again.
    assert any(throttler.fetch_allowed(cycle) for cycle in range(8))


def test_latest_wins_release_falls_back_to_remaining_token():
    throttler = SelectiveThrottler(_policy(), escalate_only=False)
    vlc = _branch(1)
    lc = _branch(2)
    throttler.on_branch_fetched(vlc, ConfidenceLevel.VLC)
    throttler.on_branch_fetched(lc, ConfidenceLevel.LC)
    throttler.on_branch_resolved(lc)
    # Only the VLC token remains; it dictates the level again.
    assert _stalled_everywhere(throttler)


def test_escalation_release_restores_weaker_level():
    throttler = SelectiveThrottler(_policy())
    lc = _branch(1)
    vlc = _branch(2)
    throttler.on_branch_fetched(lc, ConfidenceLevel.LC)
    throttler.on_branch_fetched(vlc, ConfidenceLevel.VLC)
    assert _stalled_everywhere(throttler)
    throttler.on_branch_resolved(vlc)
    # The LC token remains armed: quarter bandwidth, not full.
    active = sum(throttler.fetch_allowed(cycle) for cycle in range(8))
    assert 0 < active < 8


def test_all_released_returns_to_full_bandwidth():
    for escalate in (True, False):
        throttler = SelectiveThrottler(_policy(), escalate_only=escalate)
        branch = _branch(3)
        throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
        throttler.on_branch_squashed(branch)
        assert all(throttler.fetch_allowed(cycle) for cycle in range(8))


def test_latest_wins_no_select_scope():
    policy = ThrottlePolicy(
        "sel",
        lc=ThrottleAction(no_select=True),
        vlc=ThrottleAction(fetch=BandwidthLevel.STALL),
    )
    throttler = SelectiveThrottler(policy, escalate_only=False)
    lc = _branch(5)
    throttler.on_branch_fetched(lc, ConfidenceLevel.LC)
    younger = _branch(9)
    older = _branch(2)
    assert throttler.blocks_selection(younger)
    assert not throttler.blocks_selection(older)
    # A later VLC trigger (no no_select action) supersedes in latest-wins.
    vlc = _branch(7)
    throttler.on_branch_fetched(vlc, ConfidenceLevel.VLC)
    assert not throttler.blocks_selection(younger)
