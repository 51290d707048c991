"""Tests for one-off runs, the scheduler's memo and comparison metrics."""

import pytest

from repro.core.gating import PipelineGatingController
from repro.core.oracle import OracleController
from repro.core.throttler import NullController, SelectiveThrottler
from repro.errors import ExperimentError
from repro.experiments.engine import (
    default_instructions,
    default_warmup,
    make_cell,
    make_controller,
    simulate,
)
from repro.experiments.results import ComparisonResult, SimulationResult, compare
from repro.experiments.scheduler import SweepScheduler


def _result(benchmark="go", label="x", instructions=1000, cycles=1000,
            power=50.0, seconds=1e-6):
    return SimulationResult(
        benchmark=benchmark,
        label=label,
        instructions=instructions,
        cycles=cycles,
        ipc=instructions / cycles,
        average_power_watts=power,
        energy_joules=power * seconds,
        execution_seconds=seconds,
        miss_rate=0.1,
        spec_metric=0.6,
        pvn_metric=0.4,
        wrong_path_fetch_fraction=0.5,
        wasted_energy_fraction=0.2,
    )


# --- compare() ---------------------------------------------------------------

def test_compare_identical_runs_is_neutral():
    comparison = compare(_result(), _result(label="same"))
    assert comparison.speedup == pytest.approx(1.0)
    assert comparison.power_savings_pct == pytest.approx(0.0)
    assert comparison.energy_savings_pct == pytest.approx(0.0)
    assert comparison.ed_improvement_pct == pytest.approx(0.0)


def test_compare_savings_signs():
    baseline = _result()
    cheaper_slower = _result(label="t", power=40.0, seconds=1.1e-6)
    comparison = compare(baseline, cheaper_slower)
    assert comparison.speedup < 1.0
    assert comparison.slowdown_pct == pytest.approx((1 - comparison.speedup) * 100)
    assert comparison.power_savings_pct == pytest.approx(20.0)
    # energy = power x time: 40*1.1 vs 50*1.0 -> 12% savings
    assert comparison.energy_savings_pct == pytest.approx(12.0)
    # E-D = energy x time: 44*1.1 vs 50*1.0 -> 3.2% improvement
    assert comparison.ed_improvement_pct == pytest.approx(3.2)


def test_compare_rejects_different_benchmarks():
    with pytest.raises(ExperimentError):
        compare(_result(benchmark="go"), _result(benchmark="gcc"))


def test_compare_tolerates_commit_width_jitter():
    comparison = compare(_result(instructions=1000), _result(instructions=1004))
    assert isinstance(comparison, ComparisonResult)


def test_compare_rejects_big_length_mismatch():
    with pytest.raises(ExperimentError):
        compare(_result(instructions=1000), _result(instructions=1500))


# --- make_controller ---------------------------------------------------------

def test_make_controller_kinds():
    assert isinstance(make_controller(("baseline",)), NullController)
    assert isinstance(make_controller(("throttle", "C2")), SelectiveThrottler)
    gating = make_controller(("gating", 3))
    assert isinstance(gating, PipelineGatingController)
    assert gating.gating_threshold == 3
    assert isinstance(make_controller(("oracle", "fetch")), OracleController)


def test_make_controller_rejects_gating_experiment_as_throttle():
    with pytest.raises(ExperimentError):
        make_controller(("throttle", "A7"))


def test_make_controller_rejects_unknown():
    with pytest.raises(ExperimentError):
        make_controller(("magic",))


# --- one-off runs and the scheduler's memo -----------------------------------

def test_defaults_read_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "1234")
    monkeypatch.setenv("REPRO_SIM_WARMUP", "99")
    assert default_instructions() == 1234
    assert default_warmup() == 99


def test_one_off_run_produces_result():
    result = simulate(make_cell("gzip", instructions=2000, warmup=500))
    assert result.benchmark == "gzip"
    assert result.instructions >= 2000
    assert result.average_power_watts > 0
    assert result.energy_joules > 0
    assert 0 < result.ipc < 8
    assert result.energy_delay == pytest.approx(
        result.energy_joules * result.execution_seconds
    )


def _run(scheduler, spec, instructions, warmup):
    return scheduler.run_cells([
        make_cell("gzip", spec, instructions=instructions, warmup=warmup)
    ])[0]


def test_runner_caches_baseline():
    scheduler = SweepScheduler()
    first = _run(scheduler, ("baseline",), 1500, 300)
    second = _run(scheduler, ("baseline",), 1500, 300)
    assert first is second


def test_runner_distinguishes_controllers():
    scheduler = SweepScheduler()
    baseline = _run(scheduler, ("baseline",), 1500, 300)
    throttled = _run(scheduler, ("throttle", "A6"), 1500, 300)
    assert baseline is not throttled
    assert throttled.label == "A6"


def test_runner_selects_estimator_per_mechanism():
    scheduler = SweepScheduler()
    gating = _run(scheduler, ("gating", 2), 1200, 200)
    assert gating.label.startswith("gating")
    oracle = _run(scheduler, ("oracle", "fetch"), 1200, 200)
    assert oracle.label == "oracle-fetch"
    assert oracle.wasted_energy_fraction == pytest.approx(0.0, abs=1e-9)
