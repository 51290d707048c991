#!/usr/bin/env python
"""Profile one simulation and print the hottest functions.

Future performance PRs should start from data, not intuition::

    PYTHONPATH=src python tools/profile_run.py                 # defaults
    PYTHONPATH=src python tools/profile_run.py --benchmark gcc \
        --experiment C2 --instructions 40000 --top 30
    PYTHONPATH=src python tools/profile_run.py --mix mix2-branchy  # SMT core
    PYTHONPATH=src python tools/profile_run.py --experiment gating:1 \
        --memory-latency 400                 # a gated-stall solo cell
    PYTHONPATH=src python tools/profile_run.py --mix mix2-branchy \
        --policy confidence-gating --memory-latency 200  # its SMT cell
    PYTHONPATH=src python tools/profile_run.py --save run.pstats

The machine is built by :func:`repro.experiments.engine.build_processor`
(or ``build_smt_processor`` with ``--mix``), i.e. exactly the one every
figure, table and campaign simulates.  Every report covers one window,
the **measured window**: the warm-up runs first, unprofiled and untimed,
then the measurement resets and only the measured instructions are
profiled, timed and counted.  The report closes with the ``repro``
package's calls per committed instruction, module by module — the
counting rule of the cost ledger (``tests/test_cost_ledger.py``), whose
counts repeat exactly where wall time does not.  Every report's last
line is the cyclic collector's work over the same window: collections
per generation and their pause time, from ``gc.callbacks``.  ``--save``
writes the raw pstats file for snakeviz/gprof2dot.

``--stage-timers`` swaps cProfile for the telemetry layer: each stage's
``tick`` is wrapped with a wall-clock accumulator
(:class:`repro.telemetry.timers.StageTimers`) and the probe bus supplies
active-cycle counts, answering "which stage costs the time, and is it
busy or just ticking?" without tracing overhead::

    PYTHONPATH=src python tools/profile_run.py --stage-timers
    PYTHONPATH=src python tools/profile_run.py --stage-timers --mix mix2-branchy

``--skip-stats`` (combinable with ``--stage-timers``) reports what the
scheduler's next-event cycle skip covered, from the probe bus's skip
counters: the skipped-cycle fraction, the share of windows that
fast-forwarded a blocked (not empty) machine, and a power-of-two
window-length histogram::

    PYTHONPATH=src python tools/profile_run.py --skip-stats --experiment C2
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.experiments.engine import (
    build_processor,
    build_smt_processor,
    default_instructions,
    default_warmup,
    make_cell,
    make_smt_cell,
)
from repro.pipeline.config import table3_config
from repro.smt.mixes import MIX_NAMES
from repro.smt.policies import POLICY_NAMES
from repro.telemetry.timers import repro_call_counts
from repro.workloads.suite import BENCHMARK_NAMES

SORT_KEYS = ("cumulative", "cumtime", "tottime", "ncalls")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profile_run",
        description="cProfile one simulation and print the top hotspots.",
    )
    parser.add_argument(
        "--benchmark", default="go", choices=BENCHMARK_NAMES,
        help="calibrated benchmark to simulate (default: go)",
    )
    parser.add_argument(
        "--experiment", default="baseline",
        help="controller: 'baseline', a policy name (C2, A5, ...) or "
        "'gating:N' (default: baseline)",
    )
    parser.add_argument(
        "--mix", default=None, choices=MIX_NAMES,
        help="profile an SMT mix instead of a single-thread benchmark",
    )
    parser.add_argument(
        "--policy", default=None, choices=POLICY_NAMES,
        help="SMT fetch policy of --mix (default: confidence-gating)",
    )
    parser.add_argument(
        "--memory-latency", type=int, default=None, metavar="N",
        help="main-memory latency in cycles (default: Table 3's)",
    )
    parser.add_argument(
        "--instructions", type=int, default=None,
        help=f"measured instructions (default: {default_instructions()})",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help=f"warm-up instructions (default: {default_warmup()})",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="number of functions to print (default: 20)",
    )
    parser.add_argument(
        "--sort", default="cumulative", choices=SORT_KEYS,
        help="pstats sort key; cumtime is an alias of cumulative "
        "(default: cumulative)",
    )
    parser.add_argument(
        "--save", default=None,
        help="also write the raw profile to this pstats file",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="profile with the pipeline invariant sanitizer enabled "
        "(shows what the per-cycle checks cost)",
    )
    parser.add_argument(
        "--stage-timers", action="store_true",
        help="per-stage wall-time attribution from the telemetry layer "
        "instead of cProfile (stage tick timers + probe-bus active "
        "cycles; no tracing overhead)",
    )
    parser.add_argument(
        "--skip-stats", action="store_true",
        help="cycle-skip fast-forward report from the probe bus instead "
        "of cProfile: skipped-cycle fraction and a window-length "
        "histogram (combines with --stage-timers)",
    )
    return parser


def warm_up(processor, cell) -> None:
    """Run ``cell``'s warm-up on ``processor`` and reset its measurement;
    whatever runs next is the measured window.

    Together with ``processor.run(cell.instructions)`` this is the exact
    sequence of ``processor.run(instructions, warmup)``, split so a
    profiler or timer can start at the window boundary.
    """
    if cell.warmup:
        processor.run(cell.warmup)
        processor.reset_measurement()


class GcMeter:
    """Cyclic-GC collections and pause time per generation while active.

    Fed by ``gc.callbacks``; use as a context manager around the window
    to measure.
    """

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def report(self) -> str:
        parts = ", ".join(
            f"gen{generation} {count} ({seconds * 1e3:.2f} ms)"
            for generation, (count, seconds) in enumerate(
                zip(self.collections, self.seconds)
            )
        )
        return f"cyclic GC collections, measured window: {parts}"


def _run_telemetry_modes(
    processor, cell, label: str, stage_timers: bool, skip_stats: bool
) -> int:
    """The probe-bus modes: one instrumented run feeds every report."""
    from repro.telemetry.timers import StageTimers

    warm_up(processor, cell)
    # Attached at the window boundary, so tick counts and wall time cover
    # the measured window the probe bus reports on, and nothing else.
    timers = StageTimers(processor).attach() if stage_timers else None
    with GcMeter() as collector:
        processor.run(cell.instructions)

    snapshot = processor.probes.snapshot()
    if timers is not None:
        _print_stage_timers(snapshot, timers, label)
    if skip_stats:
        _print_skip_stats(snapshot, label)
    print(collector.report())
    return 0


def _print_stage_timers(snapshot: dict, timers, label: str) -> None:
    """The ``--stage-timers`` report: timed ticks + probe active cycles,
    all over the measured window (fast-forwarded cycles tick no stage)."""
    cycles = snapshot["cycles"]
    total = timers.total_seconds
    print(
        f"stage timers for {label}, measured window: {cycles} cycles "
        f"({snapshot['skip']['skipped_cycles']} fast-forwarded), "
        f"{total:.3f}s in stage ticks"
    )
    print(f"{'stage':<14s} {'wall s':>8s} {'share':>7s} "
          f"{'ticks':>9s} {'active':>9s} {'busy':>6s}")
    for name, seconds, calls in timers.report():
        active = _active_cycles(snapshot, name)
        share = seconds / total if total else 0.0
        busy = active / cycles if cycles else 0.0
        print(
            f"{name:<14s} {seconds:8.3f} {share * 100:6.1f}% "
            f"{calls:9d} {active:9d} {busy * 100:5.1f}%"
        )


def _print_skip_stats(snapshot: dict, label: str) -> None:
    """The ``--skip-stats`` report: what the next-event engine covered."""
    skip = snapshot["skip"]
    cycles = snapshot["cycles"]
    skipped = skip["skipped_cycles"]
    windows = skip["windows"]
    fraction = skipped / cycles if cycles else 0.0
    print(
        f"cycle-skip for {label}: {skipped} of {cycles} measured cycles "
        f"fast-forwarded ({fraction * 100:.1f}%) across {windows} windows"
    )
    hist = skip["length_hist"]
    if not windows or not hist:
        print("  (no windows — the machine never went provably idle)")
        return
    blocked = skip["blocked_windows"]
    print(
        f"  {blocked} of {windows} windows ({blocked / windows * 100:.1f}%) "
        "blocked: a latch or ready list held instructions that could not move"
    )
    print(f"  mean window {skipped / windows:.1f} cycles; length histogram:")
    peak = max(hist.values())
    for bucket in sorted(hist, key=int):
        low = int(bucket)
        high = 2 * low - 1
        count = hist[bucket]
        bar = "#" * max(1, round(40 * count / peak))
        span = f"{low}" if high == low else f"{low}-{high}"
        print(f"  {span:>12s} {count:8d}  {bar}")


def _active_cycles(snapshot: dict, stage_name: str) -> int:
    """Probe-bus active cycles of a kernel stage.

    The kernel fuses decode and rename into one ``decode-rename`` stage
    while the probe bus keeps them as separate counter groups; a fused
    stage is active whenever any of its parts is, which the max of the
    parts approximates from totals.
    """
    stages = snapshot["stages"]
    if stage_name in stages:
        return stages[stage_name]["active_cycles"]
    parts = [
        stages[part]["active_cycles"]
        for part in stage_name.split("-")
        if part in stages
    ]
    return max(parts) if parts else 0


def _controller_spec(name: str) -> tuple:
    if name == "baseline":
        return ("baseline",)
    if name.startswith("gating:"):
        return ("gating", int(name.split(":", 1)[1]))
    return ("throttle", name)


def main(argv: Optional[List[str]] = None) -> int:
    options = _make_parser().parse_args(argv)

    if options.sanitize:
        # Before the cell is built: ProcessorConfig reads the environment
        # at construction time.
        os.environ["REPRO_SANITIZE"] = "1"
    if options.stage_timers or options.skip_stats:
        # Same pre-construction rule: the probe bus (active-cycle and
        # skip counters) attaches only when the config sees telemetry on.
        os.environ["REPRO_TELEMETRY"] = "1"

    config = table3_config()
    if options.memory_latency is not None:
        if options.memory_latency < 1:
            raise SystemExit("--memory-latency must be at least 1 cycle")
        config = replace(config, memory_latency=options.memory_latency)
    if options.policy and not options.mix:
        raise SystemExit("--policy picks the fetch policy of an SMT mix; "
                         "it needs --mix")

    if options.mix:
        cell = make_smt_cell(
            options.mix,
            config=config,
            instructions=options.instructions,
            warmup=options.warmup,
            policy=options.policy or "confidence-gating",
        )
        label = f"mix {cell.mix} under {cell.policy}"
    else:
        cell = make_cell(
            options.benchmark,
            controller_spec=_controller_spec(options.experiment),
            config=config,
            instructions=options.instructions,
            warmup=options.warmup,
        )
        label = f"{cell.benchmark} under {cell.effective_label}"

    processor = build_smt_processor(cell) if options.mix else build_processor(cell)
    if options.stage_timers or options.skip_stats:
        return _run_telemetry_modes(
            processor, cell, label,
            stage_timers=options.stage_timers,
            skip_stats=options.skip_stats,
        )

    print(
        f"profiling {label}: the measured window of {cell.instructions} "
        f"instructions (after {cell.warmup} warm-up, not profiled)"
    )
    warm_up(processor, cell)
    profile = cProfile.Profile()
    with GcMeter() as collector:
        profile.enable()
        processor.run(cell.instructions)
        profile.disable()

    committed = processor.stats.committed
    stats = pstats.Stats(profile, stream=sys.stdout)
    wall = stats.total_tt
    print(f"measured window: committed {committed} instructions in "
          f"{wall:.2f}s profiled ({committed / wall:,.0f} instr/s)\n")
    calls = repro_call_counts(stats)  # before strip_dirs: needs full paths
    stats.strip_dirs().sort_stats(options.sort).print_stats(options.top)
    _print_call_counts(calls, committed)
    if options.save:
        stats.dump_stats(options.save)
        print(f"wrote {options.save}")
    print(collector.report())
    return 0


def _print_call_counts(calls: dict, committed: int) -> None:
    """Per-module ``repro`` calls per committed instruction, busiest first."""
    totals = {module: sum(functions.values()) for module, functions in calls.items()}
    print(f"repro calls per committed instruction, measured window "
          f"({committed} instructions):")
    print(f"  {'module':<36s} {'calls':>10s} {'per instr':>9s}")
    for module, count in sorted(totals.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {module:<36s} {count:>10d} {count / committed:>9.2f}")
    total = sum(totals.values())
    print(f"  {'total':<36s} {total:>10d} {total / committed:>9.2f}")


if __name__ == "__main__":
    sys.exit(main())
