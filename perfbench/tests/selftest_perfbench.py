"""Self-tests of the benchmark harness, at the ``tiny`` size.

Named so the repository's own test run does not collect it; run it with::

    python3 -m pytest -q perfbench/tests/selftest_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import SEED_SLOTS, SIZES, build  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def tiny(name, workdir, trace=False, **kwargs):
    return bench.run_workload(
        name, seed=0, seconds=0, trace=trace, workdir=workdir, size="tiny",
        min_passes=1, setup_repeats=1, **kwargs,
    )


def test_pins_cover_every_workload_and_slot():
    pins = bench.load_pins()
    for size in ("full", "tiny"):
        for name in WORKLOADS:
            assert sorted(pins[size][name], key=int) == [str(s) for s in range(SEED_SLOTS)]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_with_its_unit(name, trace, workdir):
    report = tiny(name, workdir, trace=trace)
    assert report.failed == 0 and report.attempted > 0
    expected = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert report.units == expected
    assert set(report.metrics) == set(expected)
    if not trace:
        assert all(value > 0 for value in report.metrics.values())
        return
    cache_calls = report.metrics["experiments.cache.get.calls"]
    pool_s = report.metrics["experiments.pool.worker_s"]
    assert (cache_calls > 0) == (name == "sweep-cache")
    assert (pool_s > 0) == (name == "sweep-cache")
    assert report.metrics["experiments.simulate.calls"] > 0
    assert 0.0 < report.metrics["trace.coverage"] <= 1.0
    if name == "sweep-cache":
        # Exact counts: forked workers must not report the parent's totals.
        cells = len(build(name, "tiny", workdir).cells(0))
        reruns = SIZES["tiny"].warm_reruns
        assert report.metrics["experiments.cache.get.calls"] == cells * (1 + reruns)
        assert report.metrics["experiments.cache.put.calls"] == cells
        assert report.metrics["studies.plan.calls"] == 1 + reruns


def test_gated_stall_skips_more_cycles_than_fig3(workdir):
    gated = tiny("gated-stall", workdir, trace=True).metrics
    fig3 = tiny("fig3-slice", workdir, trace=True).metrics
    assert gated["pipeline.scheduler.skip_frac"] > 0.5
    assert fig3["pipeline.scheduler.skip_frac"] < gated["pipeline.scheduler.skip_frac"]
    assert gated["smt.fetch_policy.calls"] > 0 == fig3["smt.fetch_policy.calls"]


def test_wrong_digest_counts_as_failure(workdir):
    pins = json.loads(json.dumps(bench.load_pins()))
    pinned = pins["tiny"]["fig3-slice"]["0"]
    pinned[3] = "0" * 64
    report = tiny("fig3-slice", workdir, pins=pins)
    assert report.passes == 1
    assert (report.failed, report.attempted) == (1, len(pinned))


def test_raising_pass_counts_every_cell_and_moves_on(workdir, monkeypatch):
    from workloads import Fig3Slice

    original = Fig3Slice.run_pass
    calls = []

    def flaky(self, slot, summarize_wrap=None):
        calls.append(slot)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return original(self, slot, summarize_wrap)

    monkeypatch.setattr(Fig3Slice, "run_pass", flaky)
    report = bench.run_workload(
        "fig3-slice", seed=0, seconds=0, trace=False, workdir=workdir, size="tiny",
        min_passes=2, setup_repeats=1,
    )
    assert report.passes == 1 and report.failed == 24 and report.attempted == 48


def test_scrub_removes_inherited_repro_variables(monkeypatch):
    from repro.pipeline.config import table3_config

    monkeypatch.setenv("REPRO_KERNEL", "object")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    removed = run.scrub_repro_env()
    assert removed == ["REPRO_KERNEL", "REPRO_SANITIZE"]
    assert not any(name.startswith("REPRO_") for name in os.environ)
    config = table3_config()
    assert (config.kernel, config.sanitize) == ("array", False)


def test_run_removes_variables_before_building_configs():
    env = dict(os.environ, REPRO_KERNEL="object", REPRO_CYCLE_SKIP="0")
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "gated-stall",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# removed inherited REPRO_* variables: REPRO_CYCLE_SKIP REPRO_KERNEL"
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0


def _patched_attributes():
    from repro.experiments import engine
    from repro.pipeline.processor import Processor
    from repro.smt.core import SmtProcessor

    seen = {}
    for _, module, cls, names in layers.LAYERS:
        owner = layers._owner(module, cls)
        for name in names if names is not None else layers._public_functions(owner):
            seen[(owner, name)] = vars(owner)[name]
    for owner, name in ((engine, "execute_cell"), (Processor, "run"),
                        (SmtProcessor, "run"), (Processor, "reset_measurement")):
        seen[(owner, name)] = vars(owner)[name]
    return seen


def test_wrappers_removed_after_tracing(workdir):
    before = _patched_attributes()
    tiny("fig3-slice", workdir, trace=True)
    after = _patched_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-slice", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
