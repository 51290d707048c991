"""Tests for the modified BPRU confidence estimator."""

import pytest

from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor
from repro.confidence.base import ConfidenceLevel
from repro.confidence.bpru import BPRUEstimator
from repro.errors import ConfigurationError


def _prediction(taken=True, history=0):
    return Prediction(taken, history)


def test_table_miss_uses_predictor_fallback_weak():
    estimator = BPRUEstimator(8)
    assert estimator.entries == 8 * 1024 * 8 // 16  # 16-bit tagged entries
    predictor = GSharePredictor(1)  # fresh counters are weakly taken (2)
    level = estimator.estimate(0x1000, _prediction(), predictor)
    assert level is ConfidenceLevel.LC


def test_table_miss_uses_predictor_fallback_strong():
    estimator = BPRUEstimator(8)
    predictor = GSharePredictor(1)
    snapshot = predictor.history
    for _ in range(4):
        predictor.train(0x1000, True, snapshot)  # saturate to strong taken
    level = estimator.estimate(0x1000, _prediction(history=snapshot), predictor)
    assert level is ConfidenceLevel.HC


def test_counter_levels_map_paper_ranges():
    estimator = BPRUEstimator(8, miss_increment=1, correct_decrement=1, initial_counter=0)
    predictor = GSharePredictor(1)
    pc = 0x2000
    # allocate and drive the counter up one misprediction at a time
    expectations = {
        1: ConfidenceLevel.VHC,
        2: ConfidenceLevel.HC,
        3: ConfidenceLevel.HC,
        4: ConfidenceLevel.LC,
        5: ConfidenceLevel.LC,
        6: ConfidenceLevel.VLC,
        7: ConfidenceLevel.VLC,
    }
    for mispredicts, expected in expectations.items():
        estimator.train(pc, False, 0)  # increment by 1
        level = estimator.estimate(pc, _prediction(taken=False), predictor)
        assert level is expected, f"after {mispredicts} misses"


def test_correct_predictions_decay_counter():
    estimator = BPRUEstimator(8, miss_increment=2, correct_decrement=1, initial_counter=6)
    predictor = GSharePredictor(1)
    pc = 0x2000
    estimator.train(pc, True, 0)  # allocate at 6, decay to 5
    assert estimator.estimate(pc, _prediction(), predictor) is ConfidenceLevel.LC
    for _ in range(4):
        estimator.train(pc, True, 0)
    assert estimator.estimate(pc, _prediction(), predictor) is ConfidenceLevel.VHC


def test_loop_exit_anticipation_flags_vlc():
    estimator = BPRUEstimator(8)
    predictor = GSharePredictor(1)
    pc = 0x3000
    trip = 5
    # Teach the trip length via two full committed loop executions.
    for _ in range(2):
        for _ in range(trip - 1):
            estimator.train(pc, True, 0, taken=True)
        estimator.train(pc, True, 0, taken=False)
    # Now walk the speculative streak up to the exit point.
    levels = []
    for _ in range(trip):
        levels.append(estimator.estimate(pc, _prediction(taken=True), predictor))
    assert levels[-1] is ConfidenceLevel.VLC  # exit anticipated
    assert all(lvl is not ConfidenceLevel.VLC for lvl in levels[:-2])


def test_wrong_path_estimates_do_not_advance_streak():
    estimator = BPRUEstimator(8)
    predictor = GSharePredictor(1)
    pc = 0x3000
    for _ in range(3):
        estimator.estimate(pc, _prediction(taken=True), predictor, update_state=False)
    assert estimator._spec_streaks.get(pc, 0) == 0
    estimator.estimate(pc, _prediction(taken=True), predictor, update_state=True)
    assert estimator._spec_streaks[pc] == 1


def test_validation():
    with pytest.raises(ConfigurationError):
        BPRUEstimator(0)
    with pytest.raises(ConfigurationError):
        BPRUEstimator(8, miss_increment=0)
    with pytest.raises(ConfigurationError):
        BPRUEstimator(8, initial_counter=9)
