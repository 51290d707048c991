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


def test_trace_flag_alone_profiles_the_trace(profile_run, capsys, tmp_path):
    # --trace needs no companion flag: the recorded true path is what
    # gets profiled, not the generated program of --benchmark.
    from repro.workloads.trace import record_benchmark_trace

    path = str(tmp_path / "parser.trace")
    record_benchmark_trace("parser", path, 3_000)
    assert profile_run.main([
        "--trace", path, "--instructions", "600", "--warmup", "200",
        "--top", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert f"profiling trace {path} (parser)" in out, out
