"""The declarative study layer: registry, compilation, execution, CLI."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.scheduler import SweepScheduler
from repro.studies import (
    StudyContext,
    all_studies,
    get_study,
    register,
    run_study,
)
from repro.studies.library import (
    FIGURE3_EXPERIMENTS,
    campaign_study,
    grid_study,
    mix4_grid_study,
    smt_mix_study,
)

_CTX = StudyContext(benchmarks=("gzip",), instructions=900, warmup=200)


# --- registry ----------------------------------------------------------------

def test_registry_contains_the_expected_studies():
    names = list(all_studies())
    for expected in (
        "figure1", "figure3", "figure4", "figure5", "figure6", "figure7",
        "table1", "estimator-swap", "escalation-rule", "gating-threshold",
        "clock-gating", "mshr", "campaign", "confidence-throttle-cross",
        "smt-mix2-branchy", "smt-mix4-diverse", "mix4-grid", "smt-sharing",
        "policy-frontier",
    ):
        assert expected in names, expected


def test_get_study_rejects_unknown_names_with_choices():
    with pytest.raises(ExperimentError) as excinfo:
        get_study("nonexistent")
    assert "figure3" in str(excinfo.value)


def test_register_rejects_duplicate_names():
    spec = get_study("figure1")
    with pytest.raises(ExperimentError):
        register(spec)


def test_grid_shape_is_declared():
    assert get_study("figure3").grid() == "mechanism[7] x benchmark[8]"


# --- compilation -------------------------------------------------------------

def test_grid_study_compiles_baseline_plus_experiments():
    plan = get_study("figure1").plan(_CTX)
    # 1 benchmark x (baseline + 3 oracle mechanisms).
    assert len(plan.cells) == 4
    assert plan.keys[0] == (None, "baseline", "gzip")
    assert {key[1] for key in plan.keys} == {
        "baseline", "oracle-fetch", "oracle-decode", "oracle-select"
    }


def test_figure3_plan_order_is_pinned():
    # perfbench compares result digests cell by cell in this order, and a
    # digest includes the label: baselines first, then each mechanism.
    from repro.experiments.engine import make_cell

    ctx = StudyContext(benchmarks=("go", "gcc", "parser"), instructions=900,
                       warmup=200)
    lengths = {"instructions": 900, "warmup": 200}
    expected = [make_cell(bm, ("baseline",), **lengths)
                for bm in ctx.benchmarks]
    expected += [
        make_cell(bm, spec, label=label, **lengths)
        for label, spec in FIGURE3_EXPERIMENTS.items()
        for bm in ctx.benchmarks
    ]
    assert get_study("figure3").plan(ctx).cells == expected


def test_campaign_plan_is_campaign_cells_in_order():
    from repro.experiments.campaign import campaign_cells
    from repro.pipeline.config import table3_config

    experiments = {"C2": ("throttle", "C2"), "A5": ("throttle", "A5")}
    ctx = StudyContext(benchmarks=("go", "gzip"), seeds=2, instructions=900,
                       warmup=300)
    pairs = campaign_cells(experiments, ["go", "gzip"], 2, 900, 300,
                           table3_config())
    plan = campaign_study(experiments).plan(ctx)
    assert plan.cells == [cell for _, cell in pairs]
    assert plan.keys == [key for key, _ in pairs]


@pytest.mark.parametrize("name", [
    "figure1", "figure3", "figure4", "figure5", "figure6", "figure7",
    "table1", "estimator-swap", "escalation-rule", "gating-threshold",
    "clock-gating", "mshr", "confidence-throttle-cross", "policy-frontier",
])
def test_single_thread_keys_are_point_label_benchmark(name):
    ctx = StudyContext(benchmarks=("gzip", "go"), instructions=900, warmup=200)
    spec = get_study(name)
    plan = spec.plan(ctx)
    points = spec.options.get("points", (None,))
    labels = ["baseline", *spec.options.get("experiments", {})]
    assert plan.keys == [
        (point, label, benchmark)
        for point in points for label in labels for benchmark in ("gzip", "go")
    ]
    for (point, label, benchmark), cell in zip(plan.keys, plan.cells):
        assert cell.benchmark == benchmark
        assert cell.effective_label == label
        if name == "mshr":
            assert cell.config.mshr_count == point
        if name == "clock-gating":
            assert cell.clock_gating == point
        if name == "figure6":
            assert cell.config == cell.config.with_depth(point)


def test_context_benchmarks_flow_into_every_cell():
    plan = get_study("confidence-throttle-cross").plan(_CTX)
    assert {cell.benchmark for cell in plan.cells} == {"gzip"}
    assert all(cell.instructions == 900 for cell in plan.cells)
    assert all(cell.warmup == 200 for cell in plan.cells)


def test_campaign_study_respects_context_seeds():
    study = campaign_study({"A5": ("throttle", "A5")})
    plan = study.plan(StudyContext(benchmarks=("gzip",), seeds=2,
                                   instructions=900))
    # 2 variants x (baseline + A5).
    assert len(plan.cells) == 4
    with pytest.raises(ExperimentError):
        study.plan(StudyContext(seeds=0))


def test_smt_mix_study_compiles_mix_plus_references():
    plan = smt_mix_study("mix2-branchy").plan(_CTX)
    assert len(plan.cells) == 3  # the mix + one reference per thread
    assert plan.keys == [
        ("alone", "mix2-branchy", 0), ("alone", "mix2-branchy", 1),
        ("smt", "mix2-branchy", "confidence-gating", "partitioned"),
    ]


def test_mix4_grid_enumerates_references_once_per_mix():
    plan = mix4_grid_study(mixes=("mix4-diverse",)).plan(
        StudyContext(instructions=400, warmup=100)
    )
    alone = [key for key in plan.keys if key[0] == "alone"]
    smt = [key for key in plan.keys if key[0] == "smt"]
    assert len(alone) == 4  # one per thread, shared across policies
    assert len(smt) == 3  # one cell per fetch policy


def test_plan_rejects_mismatched_keys():
    from repro.studies.spec import StudyPlan

    with pytest.raises(ExperimentError):
        StudyPlan(cells=[1, 2], keys=["only-one"])


# --- execution ---------------------------------------------------------------

@pytest.fixture(scope="module")
def fig1_run():
    return run_study(get_study("figure1"), _CTX)


def test_run_study_artifact_and_render(fig1_run):
    assert set(fig1_run.artifact.rows) == {
        "oracle-fetch", "oracle-decode", "oracle-select"
    }
    text = fig1_run.render()
    assert text.startswith("figure1: suite averages")
    # Deterministic: a rerun renders byte-identically.
    assert run_study(get_study("figure1"), _CTX).render() == text


def test_run_study_progress_streams_every_cell(fig1_run):
    ticks = []
    run = run_study(
        get_study("figure1"), _CTX,
        executor=SweepScheduler(jobs=2),
        progress=lambda done, total: ticks.append((done, total)),
    )
    assert ticks == [(i + 1, 4) for i in range(4)]
    assert run.render() == fig1_run.render()


def test_custom_study_roundtrip():
    study = grid_study("adhoc-grid", {"A5": ("throttle", "A5")})
    run = run_study(study, _CTX)
    assert list(run.artifact.rows["A5"]) == ["gzip"]
    assert study.to_csv(run.artifact).startswith("figure,experiment,benchmark")
    payload = json.loads(study.to_json(run.artifact))
    assert payload["figure"] == "adhoc-grid"


def test_smt_study_runs_through_an_experiment_runner():
    scheduler = SweepScheduler()
    run = run_study(smt_mix_study("mix2-twins"), _CTX, executor=scheduler)
    assert run.artifact["mix"].nthreads == 2
    assert len(run.artifact["alone"]) == 2
    # A rerun is served from the scheduler's memo.
    executed = scheduler.executed
    run_study(smt_mix_study("mix2-twins"), _CTX, executor=scheduler)
    assert scheduler.executed == executed


def test_all_studies_is_a_copy():
    studies = all_studies()
    studies.pop("figure1")
    assert "figure1" in all_studies()


# --- CLI ---------------------------------------------------------------------

def test_cli_study_list(capsys):
    from repro.cli import main

    assert main(["study", "list"]) == 0
    out = capsys.readouterr().out
    assert "mix4-grid" in out
    assert "mechanism[7] x benchmark[8]" in out


def test_cli_study_run_with_exports(tmp_path, capsys):
    from repro.cli import main

    csv_path = tmp_path / "study.csv"
    code = main([
        "study", "run", "estimator-swap",
        "--benchmarks", "gzip",
        "--instructions", "900", "--warmup", "200",
        "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--csv", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimator-swap: suite averages" in out
    assert csv_path.read_text().startswith("figure,experiment,benchmark")


def test_cli_study_run_warm_rerun_is_byte_identical(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "study", "run", "gating-threshold", "clock-gating",
        "--benchmarks", "gzip",
        "--instructions", "900", "--warmup", "200",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == cold


def test_cli_study_rejects_unsupported_export_before_running(tmp_path):
    from repro.cli import main

    # clock-gating has no CSV export; the refusal must come before any
    # simulation (instant even though no tiny run lengths are passed).
    with pytest.raises(SystemExit) as excinfo:
        main(["study", "run", "clock-gating", "--csv", str(tmp_path / "x.csv")])
    assert "no CSV export" in str(excinfo.value)


def test_cli_study_rejects_unknown_name():
    from repro.cli import main

    with pytest.raises(ExperimentError):
        main(["study", "run", "nonexistent"])


def test_cli_study_usage():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["study"])
    with pytest.raises(SystemExit):
        main(["study", "run"])


def test_cli_cache_info_and_prune(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    assert main([
        "run", "gzip", "A5", "--instructions", "900", "--warmup", "200",
        "--cache-dir", str(cache_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries       2" in out

    assert main([
        "cache", "prune", "--cache-dir", str(cache_dir), "--days", "0"
    ]) == 0
    assert "pruned 2 entries" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
    assert "entries       0" in capsys.readouterr().out


def test_cache_prune_sweeps_orphaned_tmp_files(tmp_path):
    from repro.experiments.engine import ResultCache

    cache = ResultCache(str(tmp_path))
    orphan = tmp_path / "deadbeef.json.tmp.1234"
    orphan.write_text("torn write")
    assert cache.prune(0) == 0  # no real entries dropped...
    assert not orphan.exists()  # ...but the orphan is swept


def test_cli_cache_requires_a_directory(monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(SystemExit):
        main(["cache", "info"])
