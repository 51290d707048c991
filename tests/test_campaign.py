"""Multi-seed campaigns: statistics, execution and persistence."""

import json
import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import (
    MetricSummary,
    _t_critical,
    format_campaign,
    summarize,
)
from repro.studies import StudyContext, run_study
from repro.studies.library import campaign_study


def test_t_table_covers_moderate_sample_sizes():
    # dof 11-30 used to fall back to z=1.960, understating the intervals
    # of 12-31 seed campaigns.  Pin the dof=15 critical value exactly.
    assert _t_critical(15) == 2.131
    assert _t_critical(30) == 2.042
    # Past the table the normal approximation takes over.
    assert _t_critical(31) == 1.960


def test_t_table_decreases_toward_z():
    values = [_t_critical(dof) for dof in range(1, 31)]
    assert values == sorted(values, reverse=True)
    assert all(value > 1.960 for value in values)


def test_summarize_uses_t_not_z_at_dof_15():
    # 16 samples, sample sd 8: half width = t(15) * 8 / 4 = 4.262, whereas
    # the old z fallback produced 3.92.
    values = [0.0, 16.0] * 8
    summary = summarize(values)
    sd = summary.stddev
    assert summary.half_width == pytest.approx(2.131 * sd / 4)
    assert summary.half_width > 1.960 * sd / 4


def test_summarize_single_sample_has_zero_width():
    summary = summarize([5.0])
    assert summary.mean == 5.0
    assert summary.half_width == 0.0
    assert summary.samples == 1


def test_summarize_constant_sample():
    summary = summarize([2.0, 2.0, 2.0])
    assert summary.mean == 2.0
    assert summary.stddev == 0.0
    assert summary.half_width == 0.0


def test_summarize_known_interval():
    # n=4, mean 5, sample sd 2 -> half width = t(3) * 2 / 2 = 3.182
    summary = summarize([3.0, 7.0, 3.0, 7.0])
    assert summary.mean == pytest.approx(5.0)
    sd = math.sqrt(16 / 3)
    assert summary.stddev == pytest.approx(sd)
    assert summary.half_width == pytest.approx(3.182 * sd / 2)


def test_summarize_rejects_empty():
    with pytest.raises(ExperimentError):
        summarize([])


def test_describe_mentions_sample_count():
    assert "n=3" in summarize([1.0, 2.0, 3.0]).describe()


@pytest.fixture(scope="module")
def small_campaign():
    return run_study(
        campaign_study({"A5": ("throttle", "A5")}, name="unit"),
        StudyContext(benchmarks=("gzip",), seeds=2, instructions=2_000),
    ).artifact


def test_campaign_collects_one_sample_per_seed(small_campaign):
    cell = small_campaign.samples["A5"]["gzip"]
    for metric, values in cell.items():
        assert len(values) == 2, metric


def test_campaign_seed_variants_differ(small_campaign):
    values = small_campaign.samples["A5"]["gzip"]["energy_savings_pct"]
    # Different program seeds => different sampled programs => different
    # measurements (astronomically unlikely to collide exactly).
    assert values[0] != values[1]


def test_campaign_suite_summary(small_campaign):
    summary = small_campaign.suite_summary("A5", "speedup")
    assert isinstance(summary, MetricSummary)
    assert summary.samples == 2
    assert 0.3 < summary.mean < 1.2


def test_campaign_json_round_trip(small_campaign):
    loaded = json.loads(small_campaign.to_json())
    assert loaded["name"] == small_campaign.name
    assert loaded["seeds"] == small_campaign.seeds
    assert loaded["samples"] == small_campaign.samples


def test_format_campaign_renders_labels(small_campaign):
    text = format_campaign(small_campaign)
    assert "A5" in text
    assert "±" in text


def test_campaign_requires_a_seed():
    with pytest.raises(ExperimentError):
        run_study(
            campaign_study({"A5": ("throttle", "A5")}), StudyContext(seeds=0)
        )
