"""Integration tests of the wrong-path resource-waste channels (§3).

These run short full-pipeline simulations and check the *mechanisms* the
oracle-fetch speedup rests on: cache pollution, MSHR occupancy, and the
accounting that feeds Table 1.
"""

from dataclasses import replace

import pytest

from repro.core.oracle import OracleController, OracleMode
from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.power.units import PowerUnit
from repro.workloads.suite import benchmark_spec

INSTRUCTIONS = 8_000
WARMUP = 3_000


def _run(name, controller=None, **config_overrides):
    spec = benchmark_spec(name)
    config = table3_config()
    if config_overrides:
        config = replace(config, **config_overrides)
    processor = Processor(
        config, spec.build_program(), controller=controller, seed=spec.seed
    )
    # D-cache accesses and misses, read from what ``access`` returns.
    dcache = processor.memory.dcache
    access = dcache.access
    dcache.outcomes = outcomes = [0, 0]

    def counting(address):
        hit = access(address)
        outcomes[0] += 1
        outcomes[1] += not hit
        return hit

    dcache.access = counting
    processor.run(INSTRUCTIONS, warmup_instructions=WARMUP)
    return processor


def _dcache_miss_rate(processor):
    accesses, misses = processor.memory.dcache.outcomes
    return misses / accesses


@pytest.fixture(scope="module")
def go_baseline():
    return _run("go")


@pytest.fixture(scope="module")
def go_oracle_fetch():
    return _run("go", controller=OracleController(OracleMode.FETCH))


def test_wrong_path_fetch_fraction_is_large(go_baseline):
    stats = go_baseline.stats
    fraction = stats.fetched_wrong_path / stats.fetched
    # The paper: incorrectly fetched instructions reach up to 80% of all
    # instructions; go (19.7% miss rate) is the extreme benchmark.
    assert 0.4 < fraction < 0.9


def test_oracle_fetch_never_fetches_wrong_path(go_oracle_fetch):
    assert go_oracle_fetch.stats.fetched_wrong_path == 0


def test_wrong_path_pollutes_the_dcache(go_baseline, go_oracle_fetch):
    polluted = _dcache_miss_rate(go_baseline)
    clean = _dcache_miss_rate(go_oracle_fetch)
    assert polluted > clean


def test_oracle_fetch_is_not_slower(go_baseline, go_oracle_fetch):
    # Pollution and MSHR occupancy must cost the baseline at least as much
    # as wrong-path "prefetching" gains it.
    assert go_oracle_fetch.stats.cycles <= go_baseline.stats.cycles * 1.005


def test_wasted_energy_fraction_in_paper_range(go_baseline):
    model = go_baseline.power
    wasted = model.total_wasted_energy() / model.total_energy()
    # go is the worst benchmark of the suite (suite average ~28%).
    assert 0.25 < wasted < 0.55


def test_wasted_never_exceeds_unit_energy(go_baseline):
    model = go_baseline.power
    for unit in PowerUnit:
        assert 0.0 <= model.unit_wasted_energy(unit) <= model.unit_energy[unit] + 1e-12


def test_scarce_mshrs_slow_the_baseline():
    plenty = _run("go", mshr_count=16)
    scarce = _run("go", mshr_count=2)
    assert scarce.stats.cycles > plenty.stats.cycles


def test_mshr_pressure_tracks_wrong_path():
    """Oracle fetch issues no wrong-path loads, so scarce MSHRs hurt it
    far less than they hurt the polluted baseline."""
    base_plenty = _run("go", mshr_count=16)
    base_scarce = _run("go", mshr_count=2)
    oracle_plenty = _run(
        "go", controller=OracleController(OracleMode.FETCH), mshr_count=16
    )
    oracle_scarce = _run(
        "go", controller=OracleController(OracleMode.FETCH), mshr_count=2
    )
    base_hit = base_scarce.stats.cycles / base_plenty.stats.cycles
    oracle_hit = oracle_scarce.stats.cycles / oracle_plenty.stats.cycles
    assert base_hit > oracle_hit


def test_access_accounting_consistency(go_baseline):
    model = go_baseline.power
    for unit in PowerUnit:
        if unit is PowerUnit.CLOCK:
            continue
        assert model.squashed_accesses[unit] <= model.unit_accesses[unit]


def test_confidence_hint_reaches_the_estimator(go_baseline):
    """The pipeline must deliver set_actual before every estimate: with
    the default BPRU value-hit rate, some branches get VLC labels, which
    only the value-hit path or saturated counters can produce early on."""
    stats = go_baseline.stats
    assert stats.confidence.low_confidence_total() > 0
