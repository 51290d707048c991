"""Experiment layer: the scheduler's memo and figure aggregation."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.engine import make_cell, simulate
from repro.experiments.figures import FigureResult, format_figure
from repro.experiments.results import ComparisonResult, compare
from repro.experiments.scheduler import SweepScheduler
from repro.studies import StudyContext, get_study, run_study

_INSTRUCTIONS = 1_500
_WARMUP = 400


@pytest.fixture(scope="module")
def scheduler():
    return SweepScheduler()


def _run(scheduler, benchmark, spec=("baseline",), label=None):
    return scheduler.run_cells([make_cell(
        benchmark, spec, instructions=_INSTRUCTIONS, warmup=_WARMUP,
        label=label,
    )])[0]


def test_baseline_is_memoised(scheduler):
    first = _run(scheduler, "gzip")
    second = _run(scheduler, "gzip")
    assert first is second


def test_different_specs_are_distinct_cache_entries(scheduler):
    baseline = _run(scheduler, "gzip", ("baseline",))
    throttled = _run(scheduler, "gzip", ("throttle", "A1"))
    assert baseline is not throttled
    assert throttled.label == "A1"


def test_label_override_does_not_corrupt_cache(scheduler):
    original = _run(scheduler, "gzip", ("throttle", "A1"))
    relabeled = _run(scheduler, "gzip", ("throttle", "A1"), label="renamed")
    assert relabeled.label == "renamed"
    again = _run(scheduler, "gzip", ("throttle", "A1"))
    assert again.label == "A1"
    assert again.cycles == original.cycles


def test_estimator_override_is_part_of_the_key(scheduler):
    bpru = _run(scheduler, "gzip", ("throttle", "A1"))
    jrs = _run(scheduler, "gzip", ("throttle", "A1", "jrs"))
    assert bpru.cycles != jrs.cycles or bpru.energy_joules != jrs.energy_joules


def test_compare_rejects_cross_benchmark(scheduler):
    a = _run(scheduler, "gzip")
    b = simulate(make_cell(
        "go", ("baseline",), instructions=_INSTRUCTIONS, warmup=_WARMUP
    ))
    with pytest.raises(ExperimentError):
        compare(a, b)


def test_compare_identity_is_neutral(scheduler):
    baseline = _run(scheduler, "gzip")
    comparison = compare(baseline, baseline)
    assert comparison.speedup == pytest.approx(1.0)
    assert comparison.energy_savings_pct == pytest.approx(0.0)
    assert comparison.ed_improvement_pct == pytest.approx(0.0)


def test_figure_average_mixes_geometric_speedup():
    figure = FigureResult("demo")
    figure.rows["X"] = {
        "a": ComparisonResult("a", "X", 0.5, 0, 0, 0),
        "b": ComparisonResult("b", "X", 2.0, 0, 0, 0),
    }
    # Geometric mean of 0.5 and 2.0 is exactly 1.0.
    assert figure.average("X")["speedup"] == pytest.approx(1.0)


def test_figure_subset_run_contains_only_requested(scheduler):
    context = StudyContext(
        benchmarks=("gzip",), instructions=_INSTRUCTIONS, warmup=_WARMUP
    )
    figure = run_study(get_study("figure1"), context, executor=scheduler).artifact
    for per_benchmark in figure.rows.values():
        assert list(per_benchmark) == ["gzip"]


def test_format_figure_has_a_row_per_experiment():
    figure = FigureResult("demo")
    figure.rows["X"] = {"a": ComparisonResult("a", "X", 1.0, 1.0, 1.0, 1.0)}
    figure.rows["Y"] = {"a": ComparisonResult("a", "Y", 1.0, 2.0, 2.0, 2.0)}
    text = format_figure(figure)
    assert len(text.splitlines()) == 4  # title + header + 2 rows


def test_oracle_runs_use_perfect_confidence(scheduler):
    result = _run(scheduler, "gzip", ("oracle", "fetch"))
    # Perfect labels: every misprediction is VLC, every correct VHC.
    assert result.spec_metric == pytest.approx(1.0)
    assert result.pvn_metric == pytest.approx(1.0)
