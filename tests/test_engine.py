"""The unified execution engine: one simulation path, cached and parallel.

Covers the regressions the engine was built to kill:

* campaign runs silently dropping the ``extra`` throttling counters that
  single runs carry;
* one-off runs and the campaign disagreeing on which seed the processor
  gets when a program seed is overridden;

plus the cache fingerprint (no collisions, config changes invalidate) and
the two scaling contracts: parallel campaigns serialise byte-identically
to serial ones, and a warm cache performs zero new simulations.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import fields, replace

import pytest

from repro.experiments.campaign import campaign_cells
from repro.experiments.engine import (
    ResultCache,
    cell_fingerprint,
    fingerprint_of,
    make_cell,
    result_from_dict,
    result_to_dict,
    simulate,
    source_digest,
)
from repro.experiments.results import SimulationResult
from repro.experiments.scheduler import SweepScheduler
from repro.pipeline.config import table3_config
from repro.studies import StudyContext, run_study
from repro.studies.library import campaign_study
from repro.workloads.suite import benchmark_spec

_INSTRUCTIONS = 1_200
_WARMUP = 300

_EXTRA_KEYS = (
    "fetch_throttled_cycles",
    "decode_throttled_cycles",
    "selection_blocked",
    "squashed",
)


def _cell(**overrides):
    defaults = dict(
        benchmark="gzip",
        controller_spec=("throttle", "A5"),
        instructions=_INSTRUCTIONS,
        warmup=_WARMUP,
    )
    defaults.update(overrides)
    return make_cell(**defaults)


@pytest.fixture(scope="module")
def throttled_result():
    return simulate(_cell())


# --- one execution path for every entry point --------------------------------

def test_runner_and_engine_results_are_identical(throttled_result):
    via_scheduler = SweepScheduler().run_cells([make_cell(
        "gzip", ("throttle", "A5"),
        instructions=_INSTRUCTIONS, warmup=_WARMUP,
    )])[0]
    assert via_scheduler == throttled_result


def test_campaign_cells_match_one_off_runs_field_for_field():
    # The historical bug: the campaign's private copy of the one-off run
    # dropped `extra` and reseeded only half the simulation.  Every cell a
    # campaign enumerates must now equal a one-off run of the same cell
    # built by make_cell from its defaults.
    pairs = campaign_cells(
        {"A5": ("throttle", "A5")}, ["gzip"], seeds=1,
        instructions=_INSTRUCTIONS, warmup=_WARMUP, config=table3_config(),
    )
    for (variant, benchmark, label), cell in pairs:
        via_campaign_path = simulate(cell)
        via_one_off = simulate(make_cell(
            benchmark, cell.controller_spec,
            instructions=_INSTRUCTIONS, warmup=_WARMUP,
            seed=cell.seed, label=label,
        ))
        for spec_field in fields(SimulationResult):
            assert getattr(via_campaign_path, spec_field.name) == getattr(
                via_one_off, spec_field.name
            ), spec_field.name


def test_throttled_results_carry_extra_counters(throttled_result):
    for key in _EXTRA_KEYS:
        assert key in throttled_result.extra
    assert throttled_result.extra["squashed"] > 0


def test_seed_override_is_bit_identical_across_entry_points():
    # One seed convention: the override drives the program *and* the
    # processor, whichever door the simulation enters through.
    seed = benchmark_spec("gzip").seed + 1000
    direct = simulate(_cell(seed=seed))
    convenience = SweepScheduler().run_cells([_cell(seed=seed)])[0]
    assert direct == convenience
    assert direct != simulate(_cell())  # and the override really reseeds


def test_default_seed_is_the_calibrated_benchmark_seed():
    assert _cell().effective_seed == benchmark_spec("gzip").seed
    assert _cell(seed=7).effective_seed == 7


# --- fingerprints ------------------------------------------------------------

def test_fingerprint_distinguishes_every_cell_dimension():
    base = _cell()
    variants = [
        _cell(benchmark="go"),
        _cell(controller_spec=("throttle", "A6")),
        _cell(controller_spec=("gating", 2)),
        _cell(instructions=_INSTRUCTIONS + 1),
        _cell(warmup=_WARMUP + 1),
        _cell(seed=1),
        _cell(clock_gating="cc0"),
        _cell(config=replace(table3_config(), mshr_count=2)),
        _cell(config=table3_config().with_depth(20)),
        # (not 16 KB: 8+8 KB *is* the Table 3 baseline split)
        _cell(config=table3_config().with_table_sizes(32)),
    ]
    prints = [cell_fingerprint(cell) for cell in [base] + variants]
    assert len(set(prints)) == len(prints)


def test_fingerprint_changes_with_package_version(monkeypatch):
    # A persistent cache directory must not serve results computed by a
    # different simulator version.
    import repro

    before = cell_fingerprint(_cell())
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert cell_fingerprint(_cell()) != before


def test_source_digest_follows_every_byte_of_the_package(tmp_path, monkeypatch):
    # The code half of the cache key: a copy of the package tree hashes
    # the same, and a one-byte edit to any module moves the digest and
    # with it every cache key.
    from repro.experiments import engine

    package = engine._PACKAGE_ROOT
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert source_digest(copy) == source_digest(package)
    commit = copy / "pipeline" / "stages" / "commit.py"
    source = bytearray(commit.read_bytes())
    source[-1] ^= 1
    commit.write_bytes(bytes(source))
    assert source_digest(copy) != source_digest(package)
    before = cell_fingerprint(_cell())
    monkeypatch.setattr(engine, "_package_digest", lambda: source_digest(copy))
    assert cell_fingerprint(_cell()) != before


def test_fingerprint_ignores_display_label():
    assert cell_fingerprint(_cell()) == cell_fingerprint(_cell(label="pretty"))


def test_fingerprint_ignores_explicit_default_seed():
    default = benchmark_spec("gzip").seed
    assert cell_fingerprint(_cell()) == cell_fingerprint(_cell(seed=default))


def test_config_key_never_collides_across_distinct_configs():
    configs = [table3_config()]
    for depth in (8, 20, 24):
        configs.append(table3_config().with_depth(depth))
    for kb in (32, 64):
        configs.append(table3_config().with_table_sizes(kb))
    configs.append(replace(table3_config(), mshr_count=2))
    configs.append(replace(table3_config(), confidence_kind="jrs"))
    keys = {cell_fingerprint(_cell(config=config)) for config in configs}
    assert len(keys) == len(configs)


def test_config_key_equal_for_equivalent_configs():
    # Sweeps that land back on the baseline must share its key, or the
    # scheduler would re-simulate identical machines.
    baseline = cell_fingerprint(_cell(config=table3_config()))
    assert cell_fingerprint(_cell(config=table3_config().with_depth(14))) == baseline
    assert cell_fingerprint(
        _cell(config=table3_config().with_table_sizes(16))
    ) == baseline


# --- the on-disk cache -------------------------------------------------------

def test_result_dict_round_trip(throttled_result):
    assert result_from_dict(result_to_dict(throttled_result)) == throttled_result


def test_cache_round_trip_and_counters(tmp_path, throttled_result):
    cache = ResultCache(str(tmp_path))
    cell = _cell()
    assert cache.get(cell) is None
    cache.put(cell, throttled_result)
    assert cache.get(cell) == throttled_result
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_cache_relabels_display_only(tmp_path, throttled_result):
    cache = ResultCache(str(tmp_path))
    cache.put(_cell(), throttled_result)
    relabelled = cache.get(_cell(label="renamed"))
    assert relabelled.label == "renamed"
    assert replace(relabelled, label=throttled_result.label) == throttled_result


def _truncate(text):
    return text[: len(text) // 2]


def _drop_result(text):
    payload = json.loads(text)
    del payload["result"]
    return json.dumps(payload)


def _bad_result(text):
    payload = json.loads(text)
    payload["result"] = {"label": "half a result"}
    return json.dumps(payload)


def _not_an_object(text):
    return json.dumps([json.loads(text)])


def _drop_kind(text):
    payload = json.loads(text)
    del payload["kind"]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "damage", (_truncate, _drop_result, _bad_result, _not_an_object, _drop_kind)
)
def test_damaged_cache_entry_is_a_miss_and_the_rerun_rewrites_it(
    tmp_path, throttled_result, damage
):
    """Fault injection: a truncated entry, entries that parse with the
    right schema and kind but carry no well-formed ``result``, JSON that
    is not an object, and a well-formed entry with no ``kind`` field are
    misses (never an exception out of the sweep), and rerunning the cell
    rewrites the entry."""
    cell = _cell()
    cache = ResultCache(str(tmp_path))
    cache.put(cell, throttled_result)
    path = cache._path(fingerprint_of(cell))
    with open(path) as handle:
        intact = handle.read()
    with open(path, "w") as handle:
        handle.write(damage(intact))
    assert cache.get(cell) is None
    assert (cache.hits, cache.misses) == (0, 1)

    rerun = SweepScheduler(cache=ResultCache(str(tmp_path)))
    assert rerun.run_cells([cell]) == [throttled_result]
    assert rerun.executed == 1
    with open(path) as handle:
        assert handle.read() == intact
    assert ResultCache(str(tmp_path)).get(cell) == throttled_result


def test_changed_config_field_invalidates_cache_entry(tmp_path, throttled_result):
    cache = ResultCache(str(tmp_path))
    cache.put(_cell(), throttled_result)
    changed = _cell(config=replace(table3_config(), mshr_count=2))
    assert cache.get(changed) is None
    assert cache.misses == 1


# --- custom-policy controller specs ------------------------------------------

def test_policy_spec_round_trips_all_four_levels():
    from repro.confidence.base import ConfidenceLevel
    from repro.core.levels import BandwidthLevel
    from repro.core.policy import ThrottleAction, ThrottlePolicy
    from repro.experiments.engine import policy_from_spec, policy_spec

    policy = ThrottlePolicy(
        "custom",
        lc=ThrottleAction(BandwidthLevel.QUARTER, no_select=True),
        vlc=ThrottleAction(BandwidthLevel.STALL, BandwidthLevel.STALL, True),
        hc=ThrottleAction(BandwidthLevel.HALF),
        vhc=ThrottleAction(decode=BandwidthLevel.HALF),
    )
    rebuilt = policy_from_spec(policy_spec(policy))
    assert rebuilt.name == "custom"
    for level in ConfidenceLevel:
        original = policy.action_for(level)
        copy = rebuilt.action_for(level)
        assert (copy.fetch, copy.decode, copy.no_select) == (
            original.fetch, original.decode, original.no_select
        ), level


def test_policy_spec_cells_run_through_the_engine():
    from repro.core.policy import experiment_policy
    from repro.experiments.engine import policy_spec

    spec = policy_spec(experiment_policy("A5"))
    via_policy = simulate(_cell(controller_spec=spec))
    named = simulate(_cell())  # ("throttle", "A5") on the same cell
    assert via_policy == named  # same policy, same label, same simulation


# --- the scheduler and its memo ----------------------------------------------

def test_engine_preserves_submission_order():
    scheduler = SweepScheduler()
    cells = [_cell(controller_spec=("baseline",)), _cell()]
    results = scheduler.run_cells(cells)
    assert [r.label for r in results] == ["baseline", "A5"]
    assert scheduler.executed == 2


def test_engine_rejects_zero_jobs():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        SweepScheduler(jobs=0)


def test_runner_memo_does_not_leak_custom_labels():
    scheduler = SweepScheduler()
    labelled = scheduler.run_cells([_cell(label="pretty")])[0]
    assert labelled.label == "pretty"
    assert scheduler.run_cells([_cell()])[0].label == "A5"
    assert scheduler.executed == 1  # same memo entry served both


def test_runner_prefetch_warms_the_memo():
    scheduler = SweepScheduler()
    results = scheduler.run_cells([_cell(controller_spec=("baseline",)), _cell()])
    assert [r.label for r in results] == ["baseline", "A5"]
    assert scheduler.executed == 2
    scheduler.run_cells([_cell(controller_spec=("baseline",))])
    scheduler.run_cells([_cell()])
    assert scheduler.executed == 2  # both served from the memo


# --- campaign scaling contracts ----------------------------------------------

@pytest.fixture(scope="module")
def campaign_kwargs():
    return dict(
        experiments={"A5": ("throttle", "A5")},
        benchmarks=("gzip",),
        seeds=2,
        instructions=_INSTRUCTIONS,
        name="engine-test",
    )


def _campaign(kwargs, executor=None):
    spec = campaign_study(kwargs["experiments"], name=kwargs["name"])
    context = StudyContext(
        benchmarks=kwargs["benchmarks"], seeds=kwargs["seeds"],
        instructions=kwargs["instructions"],
    )
    return run_study(spec, context, executor=executor).artifact


@pytest.fixture(scope="module")
def serial_campaign(campaign_kwargs):
    return _campaign(campaign_kwargs)


def test_parallel_campaign_is_byte_identical_to_serial(
    serial_campaign, campaign_kwargs
):
    parallel = _campaign(campaign_kwargs, SweepScheduler(jobs=2))
    assert parallel.to_json() == serial_campaign.to_json()


def test_warm_cache_campaign_simulates_nothing(
    tmp_path, serial_campaign, campaign_kwargs
):
    cold = SweepScheduler(cache=ResultCache(str(tmp_path)))
    first = _campaign(campaign_kwargs, cold)
    assert cold.executed == 4  # 2 seeds x (baseline + A5)
    assert cold.cache.hits == 0

    warm = SweepScheduler(cache=ResultCache(str(tmp_path)))
    second = _campaign(campaign_kwargs, warm)
    assert warm.executed == 0
    assert warm.cache.hits == 4
    assert second.to_json() == first.to_json() == serial_campaign.to_json()
