"""Tests for the JRS confidence estimator."""

import pytest

from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor
from repro.confidence.base import ConfidenceLevel
from repro.confidence.jrs import JRSEstimator
from repro.errors import ConfigurationError


def _prediction(history=0):
    return Prediction(True, history)


def test_starts_low_confidence():
    estimator = JRSEstimator(8, threshold=12)
    level = estimator.estimate(0x1000, _prediction(), GSharePredictor(1))
    assert level is ConfidenceLevel.LC


def test_becomes_high_confidence_after_threshold_corrects():
    estimator = JRSEstimator(8, threshold=12)
    predictor = GSharePredictor(1)
    for _ in range(12):
        estimator.train(0x1000, True, 0)
    assert estimator.estimate(0x1000, _prediction(), predictor) is ConfidenceLevel.HC


def test_below_threshold_stays_low():
    estimator = JRSEstimator(8, threshold=12)
    predictor = GSharePredictor(1)
    for _ in range(11):
        estimator.train(0x1000, True, 0)
    assert estimator.estimate(0x1000, _prediction(), predictor) is ConfidenceLevel.LC


def test_misprediction_resets_counter():
    estimator = JRSEstimator(8, threshold=12)
    predictor = GSharePredictor(1)
    for _ in range(15):
        estimator.train(0x1000, True, 0)
    estimator.train(0x1000, False, 0)
    assert estimator.estimate(0x1000, _prediction(), predictor) is ConfidenceLevel.LC


def test_counter_saturates_at_15():
    estimator = JRSEstimator(8, threshold=12)
    for _ in range(100):
        estimator.train(0x1000, True, 0)
    index = estimator._index(0x1000, 0)
    assert estimator.table[index] == 15


def test_history_indexes_distinct_entries():
    estimator = JRSEstimator(8, threshold=2)
    predictor = GSharePredictor(1)
    estimator.train(0x1000, True, 0)
    estimator.train(0x1000, True, 0)
    assert estimator.estimate(0x1000, _prediction(0), predictor) is ConfidenceLevel.HC
    # same pc, different history -> different (cold) entry
    assert estimator.estimate(0x1000, _prediction(0x55), predictor) is ConfidenceLevel.LC


def test_output_is_binary():
    estimator = JRSEstimator(8)
    predictor = GSharePredictor(1)
    levels = set()
    for pc in range(0x1000, 0x1100, 4):
        levels.add(estimator.estimate(pc, _prediction(), predictor))
    assert levels <= {ConfidenceLevel.HC, ConfidenceLevel.LC}


def test_validation():
    with pytest.raises(ConfigurationError):
        JRSEstimator(0)
    with pytest.raises(ConfigurationError):
        JRSEstimator(8, threshold=16)
    with pytest.raises(ConfigurationError):
        JRSEstimator(8, threshold=0)
