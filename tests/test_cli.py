"""Command-line interface (fast paths only; figures run at tiny scale)."""

import json

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "compress" in out


def test_table3_command(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "8 instr/cycle" in out


def test_run_command(capsys):
    code = main(["run", "go", "C2", "--instructions", "2000", "--warmup", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "energy savings" in out


def test_run_command_with_estimator_override(capsys):
    code = main(
        ["run", "go", "A5", "jrs", "--instructions", "2000", "--warmup", "500"]
    )
    assert code == 0
    assert "A5/jrs" in capsys.readouterr().out


def test_run_command_requires_two_args():
    with pytest.raises(SystemExit):
        main(["run", "go"])


def test_unknown_benchmark_subset_rejected():
    with pytest.raises(SystemExit):
        main(["figure1", "--benchmarks", "nonexistent"])


def test_campaign_command_with_cache_and_jobs(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    save_path = tmp_path / "campaign.json"
    argv = [
        "campaign", "A5",
        "--benchmarks", "gzip",
        "--seeds", "2",
        "--instructions", "1200",
        "--jobs", "2",
        "--cache-dir", str(cache_dir),
        "--save", str(save_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "A5" in out
    assert "±" in out
    # Entries only — the underscore-prefixed stats sidecar is metadata.
    cached_entries = list(cache_dir.glob("[!_]*.json"))
    assert len(cached_entries) == 4  # 2 seeds x (baseline + A5)
    first = save_path.read_text()

    # Warm rerun: byte-identical output from the cache alone.
    assert main(argv) == 0
    assert save_path.read_text() == first
    assert len(list(cache_dir.glob("[!_]*.json"))) == 4


def test_campaign_command_requires_an_experiment():
    with pytest.raises(SystemExit):
        main(["campaign"])


def test_run_command_with_cache_dir(tmp_path, capsys):
    argv = [
        "run", "go", "C2",
        "--instructions", "1200", "--warmup", "300",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    assert "speedup" in capsys.readouterr().out
    assert list((tmp_path / "cache").glob("*.json"))


def test_no_cache_flag_disables_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        "run", "go", "C2",
        "--instructions", "1200", "--warmup", "300",
        "--cache-dir", str(cache_dir), "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert not cache_dir.exists() or not list(cache_dir.glob("*.json"))


def test_bar_metric_rejects_unknown_names_with_choices():
    from repro.cli import _BAR_METRICS, _bar_metric

    for name in _BAR_METRICS:
        assert _bar_metric(name) == _BAR_METRICS[name]
    with pytest.raises(SystemExit) as excinfo:
        _bar_metric("wattage")
    message = str(excinfo.value)
    assert "wattage" in message
    for valid in sorted(_BAR_METRICS):
        assert valid in message


def test_unknown_bars_choice_rejected_at_the_parser():
    with pytest.raises(SystemExit):
        main(["figure1", "--bars", "wattage"])


def test_figure1_with_export(tmp_path, capsys):
    csv_path = tmp_path / "fig1.csv"
    json_path = tmp_path / "fig1.json"
    code = main(
        [
            "figure1",
            "--instructions", "1500",
            "--warmup", "500",
            "--benchmarks", "go",
            "--bars", "energy",
            "--csv", str(csv_path),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    assert "oracle-fetch" in capsys.readouterr().out
    assert csv_path.read_text().startswith("figure,experiment,benchmark")
    payload = json.loads(json_path.read_text())
    assert payload["figure"] == "figure1"
    assert any(r["benchmark"] == "go" for r in payload["records"])


_SHORT = ["--instructions", "300", "--warmup", "100", "--jobs", "1", "--no-cache"]


@pytest.mark.parametrize("experiment, label", [
    ("A7", "gating(th=2)"), ("C7", "gating(th=2)"), ("gating:3", "gating(th=3)"),
])
def test_run_command_accepts_gating_experiments(experiment, label, capsys):
    # `run` parses its experiment like `campaign`: the per-figure Pipeline
    # Gating entries and gating:N are gating specs, not throttle policies.
    assert main(["run", "go", experiment] + _SHORT) == 0
    out = capsys.readouterr().out
    assert f"go under {label} (vs baseline):" in out
    assert "speedup" in out


def test_run_command_validates_the_experiment_before_simulating(monkeypatch):
    from repro.errors import ExperimentError
    from repro.experiments import engine

    executed = []
    real = engine.execute_cell
    monkeypatch.setattr(
        engine, "execute_cell", lambda cell: executed.append(cell) or real(cell)
    )
    with pytest.raises(ExperimentError, match="unknown experiment 'Z9'"):
        main(["run", "go", "Z9"] + _SHORT)
    with pytest.raises(SystemExit, match="throttle experiments only"):
        main(["run", "go", "A7", "jrs"] + _SHORT)
    assert executed == []


@pytest.mark.parametrize("argv, message", [
    (["run", "go", "C2", "bogus"], "unknown confidence kind 'bogus'"),
    (["run", "go", "gating:x"], "bad experiment .gating:x.: invalid literal"),
    (["run", "go", "gating:0"], "gating threshold must be >= 1"),
    (["campaign", "gating:x"], "bad experiment .gating:x.: invalid literal"),
    (["run", "go", "C2", "perceptron-self"],
     "bad experiment 'C2': unknown confidence kind 'perceptron-self'"),
    (["run", "go", "C2", "counter-self"], "unknown confidence kind 'counter-self'"),
    (["run", "go", "C2", "none"], "unknown confidence kind 'none'"),
])
def test_bad_controller_specs_exit_before_simulating(
    argv, message, monkeypatch
):
    from repro.experiments import engine

    executed = []
    real = engine.execute_cell
    monkeypatch.setattr(
        engine, "execute_cell", lambda cell: executed.append(cell) or real(cell)
    )
    with pytest.raises(SystemExit, match=message):
        main(argv + _SHORT)
    assert executed == []


@pytest.mark.parametrize("command, flag", [
    (["figure3"], ["--mix", "mix2-branchy"]),
    (["figure3"], ["--seeds", "9"]),
    (["run", "go", "C2"], ["--policy", "icount"]),
    (["campaign", "C2"], ["--sharing", "shared"]),
    (["campaign", "C2"], ["--seed", "5"]),
    (["study", "list"], ["--seeds", "2"]),
    (["table1"], ["--seed", "5"]),
])
def test_flags_the_command_does_not_read_are_rejected(
    command, flag, monkeypatch, capsys
):
    from repro.experiments import engine

    executed = []
    monkeypatch.setattr(engine, "execute_cell", executed.append)
    with pytest.raises(SystemExit) as info:
        main(command + ["--benchmarks", "go"] + flag + _SHORT)
    assert info.value.code == 2
    assert f"{flag[0]} applies to" in capsys.readouterr().err
    assert executed == []


@pytest.mark.parametrize("args", [
    ["go", "C2", "jrs", "extra"],
    ["go", "C2", "jrs", "extra", "words"],
    ["go"],
])
def test_run_rejects_a_wrong_number_of_arguments(args, monkeypatch, capsys):
    from repro.experiments import engine

    executed = []
    monkeypatch.setattr(engine, "execute_cell", executed.append)
    with pytest.raises(SystemExit) as info:
        main(["run"] + args + _SHORT)
    assert info.value.code == 2
    assert "usage: repro run BENCHMARK EXPERIMENT [ESTIMATOR]" in capsys.readouterr().err
    assert executed == []


def test_trace_is_not_a_command(tmp_path, monkeypatch, capsys):
    # Every thread's instructions come from the generated program; there
    # is no recorded-trace front end to drive.
    from repro.experiments import engine

    executed = []
    monkeypatch.setattr(engine, "execute_cell", executed.append)
    path = tmp_path / "go.trace"
    with pytest.raises(SystemExit) as info:
        main(["trace", "record", "go", str(path)])
    assert info.value.code == 2
    assert "invalid choice: 'trace'" in capsys.readouterr().err
    assert executed == [] and not path.exists()


def test_figure6_honours_warmup(capsys):
    argv = ["figure6", "--benchmarks", "go", "--instructions", "300",
            "--jobs", "1", "--no-cache"]
    assert main(argv + ["--warmup", "100"]) == 0
    short_warmup = capsys.readouterr().out
    assert main(argv + ["--warmup", "300"]) == 0
    assert capsys.readouterr().out != short_warmup


def test_table1_command_is_the_table1_study(capsys):
    argv = ["--benchmarks", "go"] + _SHORT
    assert main(["table1"] + argv) == 0
    command = capsys.readouterr().out
    assert main(["study", "run", "table1"] + argv) == 0
    assert capsys.readouterr().out == command
