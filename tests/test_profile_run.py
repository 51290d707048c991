"""``tools/profile_run.py`` reports every figure over the measured window.

The warm-up runs first and is neither profiled nor timed; tick counts,
wall time, cycle counts and instruction rates all describe the measured
instructions only.
"""

from __future__ import annotations

import importlib.util
import os
import re

import pytest

_TOOL = os.path.join(
    os.path.dirname(__file__), os.pardir, "tools", "profile_run.py"
)


@pytest.fixture()
def profile_run(monkeypatch):
    # main() turns the checked modes on through the environment; register
    # both variables so they are restored after the test.
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    spec = importlib.util.spec_from_file_location("profile_run", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_timer_ticks_cover_only_the_measured_window(profile_run, capsys):
    # Warm-up as long as the measured window: counting warm-up ticks
    # would roughly double every stage's tick count.
    assert profile_run.main([
        "--stage-timers", "--benchmark", "go",
        "--instructions", "800", "--warmup", "800",
    ]) == 0
    out = capsys.readouterr().out
    cycles = int(re.search(r"(\d+) (?:measured )?cycles", out).group(1))
    rows = re.findall(
        r"^(\S+)\s+[\d.]+\s+[\d.]+%\s+(\d+)\s+(\d+)\s+[\d.]+%$", out, re.MULTILINE
    )
    assert len(rows) == 5, out
    for stage, ticks, active in rows:
        assert int(ticks) <= cycles, f"{stage}: ticks outside the measured window"
        assert int(active) <= int(ticks), stage
    # Every stepped measured cycle ticks each stage exactly once.
    header = re.search(r"measured window: (\d+) cycles \((\d+) fast-forwarded\)", out)
    assert header, out
    stepped = int(header.group(1)) - int(header.group(2))
    assert all(int(ticks) == stepped for _, ticks, _ in rows), out


def test_profile_rate_counts_the_measured_window(profile_run, capsys):
    import cProfile
    import pstats

    from repro.experiments import engine
    from repro.telemetry.timers import repro_call_counts

    engine._PROGRAM_MEMO.clear()  # both runs below compile the program afresh
    assert profile_run.main([
        "--benchmark", "go", "--instructions", "600", "--warmup", "600",
        "--top", "3",
    ]) == 0
    out = capsys.readouterr().out
    line = re.search(r"measured window: committed (\d+) instructions", out)
    assert line, out
    assert 600 <= int(line.group(1)) < 600 + 8  # commit-width overshoot

    # The closing call table totals what the ledger helper counts over
    # the measured window alone, in a fresh run after the same warm-up.
    engine._PROGRAM_MEMO.clear()
    cell = engine.make_cell("go", instructions=600, warmup=600)
    processor = engine.build_processor(cell)
    profile_run.warm_up(processor, cell)
    profile = cProfile.Profile()
    profile.runcall(processor.run, cell.instructions)
    calls = repro_call_counts(pstats.Stats(profile))
    total = re.search(r"^  total\s+(\d+)\s", out, re.MULTILINE)
    assert total, out
    assert int(total.group(1)) == sum(sum(row.values()) for row in calls.values())


def test_skip_stats_report_the_blocked_share(profile_run, capsys):
    assert profile_run.main([
        "--skip-stats", "--experiment", "C2", "--benchmark", "go",
        "--instructions", "800", "--warmup", "200",
    ]) == 0
    out = capsys.readouterr().out
    windows = int(re.search(r"across (\d+) windows", out).group(1))
    blocked = re.search(r"(\d+) of (\d+) windows \([\d.]+%\) blocked", out)
    assert blocked, out
    assert int(blocked.group(2)) == windows
    assert 0 < int(blocked.group(1)) <= windows, out


_GC_LINE = re.compile(
    r"cyclic GC collections, measured window: "
    r"gen0 \d+ \([\d.]+ ms\), gen1 \d+ \([\d.]+ ms\), gen2 \d+ \([\d.]+ ms\)"
)


@pytest.mark.parametrize("mode", [["--top", "1"], ["--skip-stats"]])
def test_every_report_ends_with_the_collector_line(profile_run, capsys, mode):
    assert profile_run.main([
        "--benchmark", "go", "--instructions", "600", "--warmup", "200", *mode,
    ]) == 0
    last = capsys.readouterr().out.rstrip("\n").splitlines()[-1]
    assert _GC_LINE.fullmatch(last), last


def test_gc_meter_counts_collections_only_while_active(profile_run):
    import gc

    with profile_run.GcMeter() as meter:
        gc.collect()
    assert meter.collections[2] == 1
    assert meter.seconds[2] > 0
    gc.collect()
    assert meter.collections[2] == 1


def _capturing(monkeypatch, profile_run, builder):
    """Record the cell ``profile_run`` hands to ``builder``."""
    built = []
    original = getattr(profile_run, builder)

    def build(cell):
        built.append(cell)
        return original(cell)

    monkeypatch.setattr(profile_run, builder, build)
    return built


def test_memory_latency_reaches_the_profiled_cell(profile_run, capsys, monkeypatch):
    # The gated-stall solo cell: Pipeline Gating at threshold 1, memory 400.
    built = _capturing(monkeypatch, profile_run, "build_processor")
    assert profile_run.main([
        "--experiment", "gating:1", "--memory-latency", "400",
        "--instructions", "300", "--warmup", "100", "--top", "1",
    ]) == 0
    (cell,) = built
    assert cell.config.memory_latency == 400
    assert cell.controller_spec == ("gating", 1)
    capsys.readouterr()


@pytest.mark.parametrize("policy", ["icount", "confidence-gating"])
def test_policy_and_memory_latency_reach_the_smt_cell(
    profile_run, capsys, monkeypatch, policy
):
    built = _capturing(monkeypatch, profile_run, "build_smt_processor")
    assert profile_run.main([
        "--mix", "mix2-branchy", "--policy", policy, "--memory-latency", "200",
        "--instructions", "300", "--warmup", "100", "--top", "1",
    ]) == 0
    (cell,) = built
    assert (cell.policy, cell.config.memory_latency) == (policy, 200)
    assert f"profiling mix mix2-branchy under {policy}:" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--policy", "icount"],  # a fetch policy needs an SMT mix
    ["--memory-latency", "0"],
])
def test_smt_and_latency_flags_reject_bad_use(profile_run, argv):
    with pytest.raises(SystemExit):
        profile_run.main([*argv, "--instructions", "300", "--warmup", "100"])
