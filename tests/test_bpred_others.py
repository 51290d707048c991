"""Tests for bimodal, local two-level, hybrid and static predictors."""

import pytest

from repro.bpred.bimodal import BimodalPredictor
from repro.bpred.hybrid import HybridPredictor
from repro.bpred.static import StaticPredictor
from repro.bpred.twolevel import LocalTwoLevelPredictor
from repro.errors import ConfigurationError


# --- bimodal ----------------------------------------------------------------

def test_bimodal_learns_bias():
    predictor = BimodalPredictor(1)
    pc = 0x3000
    for _ in range(4):
        predictor.train(pc, False)
    assert not predictor.predict(pc).taken
    for _ in range(8):
        predictor.train(pc, True)
    assert predictor.predict(pc).taken


def test_bimodal_no_history_state():
    predictor = BimodalPredictor(1)
    prediction = predictor.predict(0x3000)
    assert prediction.snapshot is None
    predictor.restore(None, True)  # must be a no-op


def test_bimodal_distinct_pcs_distinct_counters():
    predictor = BimodalPredictor(1)
    for _ in range(4):
        predictor.train(0x3000, False)
    assert not predictor.predict(0x3000).taken
    assert predictor.predict(0x3004).taken  # untouched entry stays weak-taken


def test_bimodal_invalid_size():
    with pytest.raises(ConfigurationError):
        BimodalPredictor(-1)


# --- local two-level --------------------------------------------------------

def test_twolevel_learns_short_pattern():
    predictor = LocalTwoLevelPredictor(history_entries=64, history_bits=8)
    pc = 0x5000
    pattern = [True, True, False]
    hits = 0
    for i in range(600):
        outcome = pattern[i % 3]
        prediction = predictor.predict(pc)
        if i > 500:
            hits += prediction.taken == outcome
        if prediction.taken != outcome:
            predictor.restore(prediction.snapshot, outcome)
        predictor.train(pc, outcome, prediction.snapshot)
    assert hits >= 95


def test_twolevel_speculative_history_and_restore():
    predictor = LocalTwoLevelPredictor(history_entries=16, history_bits=4)
    pc = 0x5000
    prediction = predictor.predict(pc)
    bht_index, local = prediction.snapshot
    assert predictor.bht[bht_index] == ((local << 1) | int(prediction.taken)) & 0xF
    predictor.restore(prediction.snapshot, not prediction.taken)
    assert predictor.bht[bht_index] == ((local << 1) | int(not prediction.taken)) & 0xF


def test_twolevel_validation():
    with pytest.raises(ConfigurationError):
        LocalTwoLevelPredictor(history_entries=0)


# --- hybrid -----------------------------------------------------------------

def test_hybrid_size_split():
    predictor = HybridPredictor(8)
    assert predictor.gshare.size_kb == 4
    assert predictor.bimodal.size_kb == 4


def test_hybrid_rejects_odd_size():
    with pytest.raises(ConfigurationError):
        HybridPredictor(3)


def test_hybrid_learns_biased_branch():
    predictor = HybridPredictor(2)
    pc = 0x6000
    for _ in range(16):
        prediction = predictor.predict(pc)
        if prediction.taken:  # train towards not-taken
            predictor.restore(prediction.snapshot, False)
        predictor.train(pc, False, prediction.snapshot)
    assert not predictor.predict(pc).taken


def test_hybrid_chooser_moves_toward_better_component():
    predictor = HybridPredictor(2)
    pc = 0x6000
    index = predictor._chooser_index(pc)
    start = predictor.chooser[index]
    # Drive outcomes that gshare (history-based) learns and bimodal cannot:
    # alternate taken/not-taken.
    outcome = True
    for _ in range(400):
        prediction = predictor.predict(pc)
        if prediction.taken != outcome:
            predictor.restore(prediction.snapshot, outcome)
        predictor.train(pc, outcome, prediction.snapshot)
        outcome = not outcome
    assert predictor.chooser[index] >= start


def test_hybrid_storage_accounts_all_components():
    predictor = HybridPredictor(8)
    assert predictor.storage_bits() > (
        predictor.gshare.storage_bits() + predictor.bimodal.storage_bits()
    )


# --- static -----------------------------------------------------------------

def test_static_policies():
    assert StaticPredictor("taken").predict(0).taken
    assert not StaticPredictor("not_taken").predict(0).taken


def test_static_unknown_policy():
    with pytest.raises(ConfigurationError):
        StaticPredictor("coin-flip")


def test_static_is_stateless():
    predictor = StaticPredictor("taken")
    predictor.train(0, False)
    predictor.restore(None, False)
    assert predictor.predict(0).taken
    assert predictor.storage_bits() == 0
