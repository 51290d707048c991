"""Tests for the Selective Throttling runtime and Pipeline Gating."""

from repro.confidence.base import ConfidenceLevel
from repro.core.gating import PipelineGatingController
from repro.core.policy import experiment_policy
from repro.core.throttler import NullController, SelectiveThrottler
from repro.isa.instruction import DynamicInstruction, StaticInstruction
from repro.isa.opcodes import Opcode

import pytest

from repro.errors import ConfigurationError


def _branch(seq):
    return DynamicInstruction(seq, StaticInstruction(seq * 4, Opcode.BR_COND, sources=(2,)))


def _body(seq):
    return DynamicInstruction(seq, StaticInstruction(seq * 4, Opcode.ADD, dest=3))


# --- null controller ----------------------------------------------------

def test_null_controller_never_blocks():
    controller = NullController()
    instr = _body(1)
    assert controller.fetch_allowed(0)
    assert not controller.blocks_decode(0, instr)
    assert not controller.blocks_selection(instr)
    assert not controller.blocks_wrong_path_fetch


# --- selective throttling -------------------------------------------------

def test_high_confidence_never_arms():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    branch = _branch(1)
    throttler.on_branch_fetched(branch, ConfidenceLevel.VHC)
    throttler.on_branch_fetched(branch, ConfidenceLevel.HC)
    assert throttler.active_token_count == 0
    assert all(throttler.fetch_allowed(c) for c in range(8))


def test_lc_arms_quarter_fetch_until_resolution():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    branch = _branch(1)
    throttler.on_branch_fetched(branch, ConfidenceLevel.LC)
    pattern = [throttler.fetch_allowed(c) for c in range(8)]
    assert pattern == [True, False, False, False] * 2
    throttler.on_branch_resolved(branch)
    assert all(throttler.fetch_allowed(c) for c in range(8))


def test_vlc_stalls_fetch_completely():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    branch = _branch(1)
    throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
    assert not any(throttler.fetch_allowed(c) for c in range(8))


def test_escalate_only_rule():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    vlc_branch = _branch(1)
    lc_branch = _branch(2)
    throttler.on_branch_fetched(vlc_branch, ConfidenceLevel.VLC)  # stall
    throttler.on_branch_fetched(lc_branch, ConfidenceLevel.LC)  # weaker
    # the weaker later trigger must not relax the stall
    assert not any(throttler.fetch_allowed(c) for c in range(8))
    throttler.on_branch_resolved(vlc_branch)
    # now only the LC quarter-throttle remains
    assert throttler.fetch_allowed(0)
    assert not throttler.fetch_allowed(1)


def test_squash_releases_token():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    branch = _branch(1)
    throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
    throttler.on_branch_squashed(branch)
    assert throttler.active_token_count == 0
    assert all(throttler.fetch_allowed(c) for c in range(4))


def test_release_is_idempotent():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    branch = _branch(1)
    throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
    throttler.on_branch_resolved(branch)
    throttler.on_branch_squashed(branch)  # double release must not blow up
    assert throttler.active_token_count == 0


def test_decode_throttle_spares_the_triggering_branch():
    throttler = SelectiveThrottler(experiment_policy("B3"))  # LC: decode=0
    branch = _branch(10)
    throttler.on_branch_fetched(branch, ConfidenceLevel.LC)
    older = _body(5)
    younger = _body(11)
    # the branch itself and anything older must keep decoding
    assert not throttler.blocks_decode(1, branch)
    assert not throttler.blocks_decode(1, older)
    assert throttler.blocks_decode(1, younger)
    throttler.on_branch_resolved(branch)
    assert not throttler.blocks_decode(1, younger)


def test_noselect_blocks_only_younger_instructions():
    throttler = SelectiveThrottler(experiment_policy("C2"))
    branch = _branch(10)
    throttler.on_branch_fetched(branch, ConfidenceLevel.LC)
    assert not throttler.blocks_selection(branch)  # never blocks itself
    assert not throttler.blocks_selection(_body(9))
    assert throttler.blocks_selection(_body(11))
    throttler.on_branch_resolved(branch)
    assert not throttler.blocks_selection(_body(11))


def test_noselect_uses_oldest_armed_branch():
    throttler = SelectiveThrottler(experiment_policy("C2"))
    first = _branch(10)
    second = _branch(20)
    throttler.on_branch_fetched(first, ConfidenceLevel.LC)
    throttler.on_branch_fetched(second, ConfidenceLevel.LC)
    assert throttler.blocks_selection(_body(15))
    throttler.on_branch_resolved(first)
    assert not throttler.blocks_selection(_body(15))
    assert throttler.blocks_selection(_body(25))


def test_trigger_statistics():
    throttler = SelectiveThrottler(experiment_policy("A5"))
    throttler.on_branch_fetched(_branch(1), ConfidenceLevel.LC)
    throttler.on_branch_fetched(_branch(2), ConfidenceLevel.VLC)
    throttler.on_branch_fetched(_branch(3), ConfidenceLevel.VHC)
    assert throttler.triggers == 2
    assert throttler.triggers_by_level[ConfidenceLevel.LC] == 1
    assert throttler.triggers_by_level[ConfidenceLevel.VLC] == 1


def test_reset_clears_tokens():
    throttler = SelectiveThrottler(experiment_policy("A6"))
    throttler.on_branch_fetched(_branch(1), ConfidenceLevel.LC)
    throttler.reset()
    assert all(throttler.fetch_allowed(c) for c in range(4))


# --- pipeline gating --------------------------------------------------------

def test_gating_gates_above_threshold():
    gating = PipelineGatingController(gating_threshold=2)
    branches = [_branch(i) for i in range(4)]
    for branch in branches[:2]:
        gating.on_branch_fetched(branch, ConfidenceLevel.LC)
    assert gating.fetch_allowed(0)  # at threshold: not gated (must exceed)
    gating.on_branch_fetched(branches[2], ConfidenceLevel.LC)
    assert not gating.fetch_allowed(1)
    gating.on_branch_resolved(branches[0])
    assert gating.fetch_allowed(2)


def test_gating_ignores_high_confidence():
    gating = PipelineGatingController(2)
    for i in range(10):
        gating.on_branch_fetched(_branch(i), ConfidenceLevel.HC)
    assert gating.fetch_allowed(0)
    # Two low-confidence branches reach the threshold without exceeding it.
    for i in range(10, 12):
        gating.on_branch_fetched(_branch(i), ConfidenceLevel.LC)
    assert gating.fetch_allowed(1)


def test_gating_squash_releases():
    gating = PipelineGatingController(1)
    a, b = _branch(1), _branch(2)
    gating.on_branch_fetched(a, ConfidenceLevel.LC)
    gating.on_branch_fetched(b, ConfidenceLevel.VLC)
    assert not gating.fetch_allowed(0)
    gating.on_branch_squashed(b)
    assert gating.fetch_allowed(1)


def test_gating_drop_is_idempotent():
    gating = PipelineGatingController(1)
    branch = _branch(1)
    gating.on_branch_fetched(branch, ConfidenceLevel.LC)
    gating.on_branch_resolved(branch)
    gating.on_branch_squashed(branch)
    # The second drop did not count the branch twice: two new
    # low-confidence branches exceed threshold 1 again.
    gating.on_branch_fetched(_branch(2), ConfidenceLevel.LC)
    assert gating.fetch_allowed(0)
    gating.on_branch_fetched(_branch(3), ConfidenceLevel.LC)
    assert not gating.fetch_allowed(1)


def test_gating_validation():
    with pytest.raises(ConfigurationError):
        PipelineGatingController(0)
