"""Tests for the gshare predictor."""

import pytest

from repro.bpred.gshare import GSharePredictor
from repro.errors import ConfigurationError


def test_size_to_entries():
    predictor = GSharePredictor(8)
    # 8 KB of 2-bit counters = 32768 entries, 15 index bits.
    assert predictor.entries == 32768
    assert predictor.index_bits == 15


def test_invalid_size_rejected():
    with pytest.raises(ConfigurationError):
        GSharePredictor(0)


def test_learns_always_taken_branch():
    predictor = GSharePredictor(1)
    pc = 0x4000
    for _ in range(8):
        prediction = predictor.predict(pc)
        predictor.train(pc, True, prediction.snapshot)
    assert predictor.predict(pc).taken


def test_learns_never_taken_branch():
    predictor = GSharePredictor(1)
    pc = 0x4000
    for _ in range(8):
        prediction = predictor.predict(pc)
        predictor.restore(prediction.snapshot, False)
        predictor.train(pc, False, prediction.snapshot)
    assert not predictor.predict(pc).taken


def test_learns_alternating_pattern_via_history():
    predictor = GSharePredictor(8)
    pc = 0x4000
    outcome = True
    # warm up the alternating pattern
    for _ in range(64):
        prediction = predictor.predict(pc)
        if prediction.taken != outcome:
            predictor.restore(prediction.snapshot, outcome)
        predictor.train(pc, outcome, prediction.snapshot)
        outcome = not outcome
    hits = 0
    for _ in range(32):
        prediction = predictor.predict(pc)
        hits += prediction.taken == outcome
        if prediction.taken != outcome:
            predictor.restore(prediction.snapshot, outcome)
        predictor.train(pc, outcome, prediction.snapshot)
        outcome = not outcome
    assert hits >= 30


def test_speculative_history_update():
    predictor = GSharePredictor(8)
    history_before = predictor.history
    prediction = predictor.predict(0x1000)
    expected = ((history_before << 1) | int(prediction.taken)) & ((1 << 15) - 1)
    assert predictor.history == expected
    assert prediction.snapshot == history_before


def test_restore_repairs_history():
    predictor = GSharePredictor(8)
    prediction = predictor.predict(0x1000)
    predictor.restore(prediction.snapshot, not prediction.taken)
    expected = ((prediction.snapshot << 1) | int(not prediction.taken)) & ((1 << 15) - 1)
    assert predictor.history == expected


def test_counter_strength_and_weakness():
    predictor = GSharePredictor(1)
    pc = 0x2000
    prediction = predictor.predict(pc)
    # initial counters are weakly taken (2 for 2-bit counters)
    assert predictor.counter_strength(pc, prediction.snapshot) == 2
    predictor.train(pc, True, prediction.snapshot)
    # one taken outcome makes it strongly taken
    assert predictor.counter_strength(pc, prediction.snapshot) == 3


def test_counter_saturates():
    predictor = GSharePredictor(1)
    pc = 0x2000
    snapshot = predictor.history
    for _ in range(10):
        predictor.train(pc, True, snapshot)
    assert predictor.counter_strength(pc, snapshot) == 3
    for _ in range(10):
        predictor.train(pc, False, snapshot)
    assert predictor.counter_strength(pc, snapshot) == 0

