"""Ablation studies (run at very small scale for speed)."""

import pytest

from repro.core.throttler import SelectiveThrottler
from repro.errors import ExperimentError
from repro.experiments.engine import make_cell, make_controller
from repro.experiments.scheduler import SweepScheduler
from repro.studies import StudyContext, get_study, run_study
from repro.studies.library import gating_threshold_study, mshr_study

BENCHMARKS = ("go",)
_CONTEXT = StudyContext(benchmarks=BENCHMARKS, instructions=2_500, warmup=800)


@pytest.fixture(scope="module")
def scheduler():
    return SweepScheduler()


def _artifact(spec, scheduler):
    return run_study(spec, _CONTEXT, executor=scheduler).artifact


def test_estimator_swap_produces_three_variants(scheduler):
    figure = _artifact(get_study("estimator-swap"), scheduler)
    assert set(figure.rows) == {"C2/bpru", "C2/jrs", "C2/perfect"}
    averages = figure.averages()
    # The oracle estimator bounds the realistic ones on energy-delay.
    assert (
        averages["C2/perfect"]["ed_improvement_pct"]
        >= averages["C2/bpru"]["ed_improvement_pct"] - 1e-9
    )


def test_escalation_rule_runs_both_modes(scheduler):
    figure = _artifact(get_study("escalation-rule"), scheduler)
    assert set(figure.rows) == {"C2/escalate", "C2/latest-wins"}


def test_gating_threshold_monotone_speedup(scheduler):
    figure = _artifact(gating_threshold_study((1, 3)), scheduler)
    averages = figure.averages()
    assert (
        averages["gating-th3"]["speedup"] >= averages["gating-th1"]["speedup"] - 0.01
    )


def test_clock_gating_style_ordering(scheduler):
    styles = _artifact(get_study("clock-gating"), scheduler)
    assert set(styles) == {"cc0", "cc1", "cc2", "cc3"}
    assert styles["cc0"]["average_power_watts"] > styles["cc2"]["average_power_watts"]
    assert styles["cc3"]["average_power_watts"] >= styles["cc2"]["average_power_watts"]


def test_mshr_sensitivity_returns_requested_points(scheduler):
    sweep = _artifact(mshr_study((2, 8)), scheduler)
    assert set(sweep) == {2, 8}
    for row in sweep.values():
        assert row["baseline_ipc"] > 0


def test_make_controller_estimator_override_spec():
    controller = make_controller(("throttle", "C2", "jrs"))
    assert isinstance(controller, SelectiveThrottler)
    assert controller.escalate_only


def test_make_controller_noescalate_spec():
    controller = make_controller(("throttle-noescalate", "C2"))
    assert isinstance(controller, SelectiveThrottler)
    assert not controller.escalate_only


def test_make_controller_rejects_gating_name_as_throttle():
    with pytest.raises(ExperimentError):
        make_controller(("throttle", "A7"))


def test_runner_estimator_override_changes_config(scheduler):
    result = scheduler.run_cells([make_cell(
        BENCHMARKS[0], ("throttle", "C2", "jrs"), instructions=2_500, warmup=800
    )])[0]
    assert result.label == "C2/jrs"
