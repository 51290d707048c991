"""Cost ledger: pinned per-module call counts of the default path.

Wall time on a shared host cannot see a small cost change; call counts
repeat exactly.  Each cell profiles one piece of work and pins the
``repro`` package's calls per module file
(:func:`repro.telemetry.timers.repro_call_counts`) with the work done,
in the three ``perfbench/`` workload shapes:

* **fig3**: baseline and C2 on ``go`` and ``gcc``.
* **gated**: Pipeline Gating (threshold 1) at memory latency 400 on
  ``go`` with the cycle skip on, and off (the stepped no-skip
  reference), plus ``mix2-branchy`` under confidence gating.  Each
  simulated cell pins its skip fraction, ``1 - commit ticks / cycles``.
* **sweep**: a 32-cell grid through ``SweepScheduler(jobs=1)`` from an
  empty program memo, which builds one program per affinity group.
* **supply**: 20k wrong-path records of the compiled supply on ``go``.

A simulated cell counts its measured window only.  Every config sets
``cycle_skip``, ``sanitize`` and ``telemetry``, so inherited ``REPRO_*``
variables cannot move the counts.  A moved count is a cost change;
re-pin only with a stated reason::

    PYTHONPATH=src python tests/test_cost_ledger.py --regenerate
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
from dataclasses import replace

import pytest

from repro.experiments import engine
from repro.experiments.scheduler import SweepScheduler, affinity_key
from repro.frontend.supply import CompiledSupply
from repro.pipeline.config import table3_config
from repro.telemetry.timers import repro_call_counts
from repro.workloads.suite import benchmark_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "goldens", "cost_ledger.json")

_SWEEP_MECHANISMS = (
    ("baseline",), ("throttle", "A1"), ("throttle", "A3"), ("throttle", "A5"),
    ("throttle", "B5"), ("throttle", "C2"), ("throttle", "C6"), ("gating", 2),
)


def _config(cycle_skip=True, **overrides):
    """Table 3 with every environment-defaulted field set explicitly."""
    return replace(table3_config(), cycle_skip=cycle_skip, sanitize=False,
                   telemetry=False, **overrides)


def _profiled(work):
    """``(repro calls per module and function, result)`` of ``work()``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = work()
    finally:
        profile.disable()
    return repro_call_counts(pstats.Stats(profile)), result


def _totals(counts):
    return {module: sum(calls.values()) for module, calls in counts.items()}


def _simulated(cell, build=engine.build_processor):
    """Count the measured window of ``cell`` on a freshly built program."""
    engine._PROGRAM_MEMO.clear()
    processor = build(cell)
    processor.run(cell.warmup)
    processor.reset_measurement()
    counts, stats = _profiled(lambda: processor.run(cell.instructions))
    ticks = counts["pipeline/stages/commit.py"]["tick"]
    return {
        "calls": _totals(counts),
        "committed": stats.committed,
        "cycles": stats.cycles,
        "skip_fraction": round(1 - ticks / stats.cycles, 6),
        "step_checked": counts["pipeline/stages/scheduler.py"].get("step_checked", 0),
    }


def _solo(benchmark, controller_spec, **config):
    return _simulated(engine.make_cell(
        benchmark, controller_spec, config=_config(**config),
        instructions=3000, warmup=1000,
    ))


def sweep_cells():
    return [
        engine.make_cell(benchmark, mechanism, config=_config(),
                         instructions=300, warmup=100)
        for mechanism in _SWEEP_MECHANISMS
        for benchmark in ("go", "gzip", "gcc", "twolf")
    ]


def _sweep():
    cells = sweep_cells()
    # Lazy per-process set-up (power tables, the code digest) finishes
    # first, so the counts do not depend on what ran earlier.
    SweepScheduler().run_cells([replace(cells[0], instructions=8, warmup=0)])
    engine._PROGRAM_MEMO.clear()
    counts, results = _profiled(lambda: SweepScheduler(jobs=1).run_cells(cells))
    return {
        "calls": _totals(counts),
        "committed": sum(result.instructions for result in results),
        "cycles": sum(result.cycles for result in results),
        "program_builds": counts["workloads/spec.py"].get("build_program", 0),
    }


def _wrong_path_supply(benchmark, records=20_000):
    """Wrong-path packets from a fresh divergence every 64 records."""
    spec = benchmark_spec(benchmark)
    program = spec.build_program()
    supply = CompiledSupply(program, spec.seed)

    def walk():
        walked, block, salt = 0, 0, 1
        while walked < records:
            cursor = supply.start_cursor(block % len(program.blocks), salt)
            burst = 0
            while burst < 64:
                packet, cursor = supply.wrong_packet(cursor)
                burst += len(packet)
            walked, block, salt = walked + burst, block + 7, salt + 1
        return walked

    counts, walked = _profiled(walk)
    return {"calls": _totals(counts), "records": walked}


_CELLS = {
    "fig3:go:baseline": lambda: _solo("go", ("baseline",)),
    "fig3:go:C2": lambda: _solo("go", ("throttle", "C2")),
    "fig3:gcc:baseline": lambda: _solo("gcc", ("baseline",)),
    "fig3:gcc:C2": lambda: _solo("gcc", ("throttle", "C2")),
    "gated:go:gating1:skip": lambda: _solo("go", ("gating", 1), memory_latency=400),
    "gated:go:gating1:no-skip": lambda: _solo(
        "go", ("gating", 1), cycle_skip=False, memory_latency=400),
    "gated:mix2-branchy:confidence-gating": lambda: _simulated(engine.make_smt_cell(
        "mix2-branchy", policy="confidence-gating",
        config=_config(memory_latency=200), instructions=1500, warmup=500,
    ), build=engine.build_smt_processor),
    "sweep:grid32": _sweep,
    "supply:go:wrong-path": lambda: _wrong_path_supply("go"),
}
_SIMULATED = [name for name in _CELLS if name.startswith(("fig3:", "gated:"))]


@functools.lru_cache(maxsize=None)
def measure(name):
    return _CELLS[name]()


@functools.lru_cache(maxsize=1)
def _goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["cells"]


@pytest.mark.parametrize("name", list(_CELLS))
def test_cell_counts_match_the_ledger(name):
    expected, actual = _goldens()[name], measure(name)
    assert actual["calls"] == expected["calls"], f"{name}: per-module calls moved"
    assert actual == expected, f"{name}: work counts moved"


@pytest.mark.parametrize("name", _SIMULATED)
def test_plain_cells_pay_nothing_for_checked_modes(name):
    # Sanitizer and telemetry off, no tracer attached: the plain stepper
    # is bound and no sanitizer, telemetry or tracing code runs in the
    # measured window.
    entry = measure(name)
    assert entry["step_checked"] == 0
    assert "pipeline/sanitizer.py" not in entry["calls"]
    assert not any(module.startswith("telemetry/") for module in entry["calls"])
    assert not any(module.startswith("tracing/") for module in entry["calls"])


def test_cycle_skip_fast_forwards_without_changing_the_run():
    skip = measure("gated:go:gating1:skip")
    stepped = measure("gated:go:gating1:no-skip")
    assert (skip["committed"], skip["cycles"]) == (stepped["committed"], stepped["cycles"])
    assert stepped["skip_fraction"] == 0.0
    assert skip["skip_fraction"] > 0.5
    assert sum(skip["calls"].values()) < sum(stepped["calls"].values()) / 2


def test_sweep_builds_each_program_once():
    groups = {affinity_key(cell) for cell in sweep_cells()}
    assert measure("sweep:grid32")["program_builds"] == len(groups) == 4


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit(__doc__)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({
            "description": "repro calls per module file and work counts of "
                           "the cost ledger cells; see tests/test_cost_ledger.py",
            "cells": {name: measure(name) for name in _CELLS},
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(_CELLS)} ledger cells to {GOLDEN_PATH}")
