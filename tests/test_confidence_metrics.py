"""Tests for SPEC/PVN confidence quality metrics."""

from repro.confidence.base import ConfidenceLevel
from repro.confidence.metrics import ConfidenceMatrix
from repro.confidence.perfect import PerfectEstimator
from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor


def test_empty_matrix_is_zero():
    matrix = ConfidenceMatrix()
    assert matrix.spec() == 0.0
    assert matrix.pvn() == 0.0


def test_spec_counts_caught_mispredictions():
    matrix = ConfidenceMatrix()
    # 4 mispredictions: 3 labelled low, 1 labelled high.
    for _ in range(3):
        matrix.record(ConfidenceLevel.LC, correct=False)
    matrix.record(ConfidenceLevel.HC, correct=False)
    matrix.record(ConfidenceLevel.HC, correct=True)
    assert matrix.mispredictions == 4
    assert matrix.spec() == 0.75


def test_pvn_counts_justified_low_labels():
    matrix = ConfidenceMatrix()
    # 4 low labels: 1 mispredicts.
    matrix.record(ConfidenceLevel.LC, correct=False)
    for _ in range(3):
        matrix.record(ConfidenceLevel.VLC, correct=True)
    assert matrix.low_confidence_total() == 4
    assert matrix.pvn() == 0.25


def test_vlc_counts_as_low_confidence():
    matrix = ConfidenceMatrix()
    matrix.record(ConfidenceLevel.VLC, correct=False)
    assert matrix.spec() == 1.0
    assert matrix.pvn() == 1.0


def test_perfect_estimator_is_perfect():
    estimator = PerfectEstimator()
    predictor = GSharePredictor(1)
    matrix = ConfidenceMatrix()
    outcomes = [True, False, True, True, False]
    for actual in outcomes:
        prediction = Prediction(True, 0)
        estimator.set_actual(actual)
        level = estimator.estimate(0x100, prediction, predictor)
        matrix.record(level, correct=(prediction.taken == actual))
    assert matrix.spec() == 1.0
    assert matrix.pvn() == 1.0


def test_perfect_estimator_without_hint_is_neutral():
    estimator = PerfectEstimator()
    predictor = GSharePredictor(1)
    level = estimator.estimate(0x100, Prediction(True, 0), predictor)
    assert level is ConfidenceLevel.HC


def test_confidence_level_ordering_and_is_low():
    assert ConfidenceLevel.VHC < ConfidenceLevel.HC < ConfidenceLevel.LC < ConfidenceLevel.VLC
    assert not ConfidenceLevel.VHC.is_low
    assert not ConfidenceLevel.HC.is_low
    assert ConfidenceLevel.LC.is_low
    assert ConfidenceLevel.VLC.is_low
