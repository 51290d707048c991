"""Measurement loop, correctness check and metric reduction.

One call of :func:`run_workload` measures one workload for a given time
budget.  Passes repeat until the budget is spent (at least
``min_passes``); every reported figure is a median over passes.  An
untraced run reports the end-to-end metrics; a traced run alternates
untraced and traced passes and reports the per-layer metrics.

Every pass is checked cell by cell against ``digests.json``.  A digest
mismatch counts that cell as failed; an exception counts every cell of
the pass as failed, and the loop goes on to the next pass.  The shared
pool is shut down after every pass, so a broken pool cannot poison the
next one.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.scheduler import shutdown_shared_pool

from layers import CELL_ROOT, LAYER_NAMES, CellRecorder, Tracer, wrapper_cost_ns
from workloads import build, result_digest, slot_of

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_ips": "instr/s",
    "sim_cps": "cycles/s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {}
for _layer in LAYER_NAMES:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "pipeline.scheduler.skip_frac": "fraction",
    "experiments.warmup_share": "fraction",
    "experiments.cache.hit_ratio": "fraction",
    "experiments.cache.warm_cells_per_s": "cells/s",
    "experiments.pool.worker_s": "s",
    "experiments.pool.queue_s": "s",
    "experiments.pool.busy_frac": "fraction",
    "trace.overhead": "ratio",
    "trace.wrapper_ns": "ns",
    "trace.coverage": "fraction",
})


@dataclass
class Report:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    passes: int = 0

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_pins(path: str = DIGESTS) -> Dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def count_mismatches(results: List, expected: Optional[List[str]]) -> int:
    """Cells whose digest differs from the pin (all of them when unpinned)."""
    if expected is None or len(expected) != len(results):
        return len(results)
    return sum(result_digest(r) != pin for r, pin in zip(results, expected))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _pass_metrics(workload, outcome, cells: List[Dict], batches: List[Dict]) -> Dict:
    cell_s = sum(cell["cell_s"] for cell in cells)
    measured_s = sum(cell["measured_s"] for cell in cells)
    metrics = {
        "wall_s": outcome.wall_s,
        "cells_per_s": len(outcome.results) / outcome.wall_s,
        "sim_ips": sum(cell["committed"] for cell in cells) / measured_s,
        "sim_cps": sum(cell["cycles"] for cell in cells) / measured_s,
        "experiments.warmup_share": (
            sum(cell["warm_s"] for cell in cells) / cell_s
        ),
        "simulated_cycles": sum(cell["simulated_cycles"] for cell in cells),
    }
    pool_s = queue_s = 0.0
    if workload.jobs > 1:
        pool_s = sum(batch["wall_seconds"] for batch in batches)
        queue_s = sum(batch["queue_seconds"] for batch in batches)
    metrics["experiments.pool.worker_s"] = pool_s
    metrics["experiments.pool.queue_s"] = queue_s
    metrics["experiments.pool.busy_frac"] = pool_s / (workload.jobs * outcome.wall_s)
    hits = misses = 0
    if outcome.cache_stats:
        hits, misses = outcome.cache_stats["hits"], outcome.cache_stats["misses"]
    metrics["experiments.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["experiments.cache.warm_cells_per_s"] = (
        len(outcome.results) / _median(outcome.warm_walls) if outcome.warm_walls else 0.0
    )
    return metrics


def _trace_metrics(tracer: Tracer, simulated_cycles: int) -> Dict:
    metrics = {}
    for layer in LAYER_NAMES:
        calls, self_s, _ = tracer.totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = int(calls)
        metrics[f"{layer}.self_s"] = self_s
    _, root_self, root_incl = tracer.totals[CELL_ROOT]
    metrics["trace.coverage"] = 1.0 - root_self / root_incl if root_incl else 0.0
    stepped = tracer.totals["pipeline.stages.commit"][0]
    metrics["pipeline.scheduler.skip_frac"] = (
        1.0 - stepped / simulated_cycles if simulated_cycles else 0.0
    )
    return metrics


def run_pass(workload, slot: int, recorder: CellRecorder, traced: bool):
    """One pass; returns (outcome, pass metrics, tracer or None)."""
    tracer = None
    wrap = None
    if traced:
        tracer = Tracer().install()
        recorder.tracer = tracer
        wrap = lambda fn: tracer.wrap(fn, "studies.summarize")  # noqa: E731
    try:
        outcome = workload.run_pass(slot, wrap)
    finally:
        shutdown_shared_pool()
        if tracer is not None:
            tracer.restore()
            recorder.tracer = None
        cells, batches = recorder.take()
    return outcome, _pass_metrics(workload, outcome, cells, batches), tracer


def measure_setup(name: str, slot: int, size: str, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds from spawning a fresh interpreter until it has
    imported the package, compiled the plan and started the pool."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, name, str(slot), size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    size: str = "full",
    pins: Optional[Dict] = None,
    min_passes: int = 3,
    setup_repeats: int = SETUP_REPEATS,
) -> Report:
    pins = load_pins() if pins is None else pins
    slot = slot_of(seed)
    workload = build(name, size, workdir)
    expected = pins.get(size, {}).get(name, {}).get(str(slot))
    report = Report(name)
    ncells = len(workload.cells(slot))
    untraced: List[Dict] = []
    traced: List[Dict] = []
    recorder = CellRecorder().install()
    deadline = time.perf_counter() + seconds
    schedule = [False, True] if trace else [False]
    rounds = 0
    try:
        while True:
            for traced_pass in schedule:
                attempted = ncells
                try:
                    outcome, metrics, tracer = run_pass(workload, slot, recorder, traced_pass)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    report.attempted += attempted
                    report.failed += attempted
                    continue
                failed = count_mismatches(outcome.results, expected)
                for warm in outcome.warm_results:
                    attempted += len(warm)
                    failed += count_mismatches(warm, expected)
                report.attempted += attempted
                report.failed += failed
                report.passes += 1
                if traced_pass:
                    metrics.update(_trace_metrics(tracer, metrics["simulated_cycles"]))
                    traced.append(metrics)
                else:
                    untraced.append(metrics)
            rounds += 1
            # A traced round is two passes, so two rounds bound a traced run.
            needed = min(min_passes, 2) if trace else min_passes
            if rounds >= needed and time.perf_counter() >= deadline:
                break
    finally:
        shutdown_shared_pool()
        recorder.restore()
    if not untraced or (trace and not traced):
        return report

    def median_of(rows, key):
        return _median([row[key] for row in rows])

    if trace:
        for key in PER_LAYER_UNITS:
            if key.startswith("trace."):
                continue
            rows = traced if key.endswith((".calls", ".self_s", "skip_frac")) else untraced
            value = median_of(rows, key)
            report.metrics[key] = round(value) if key.endswith(".calls") else value
        report.metrics["trace.coverage"] = median_of(traced, "trace.coverage")
        report.metrics["trace.overhead"] = (
            median_of(traced, "wall_s") / median_of(untraced, "wall_s")
        )
        report.metrics["trace.wrapper_ns"] = wrapper_cost_ns()
        report.units = dict(PER_LAYER_UNITS)
    else:
        for key in ("wall_s", "cells_per_s", "sim_ips", "sim_cps"):
            report.metrics[key] = median_of(untraced, key)
        report.metrics["peak_rss_mb"] = peak_rss_mb()
        report.metrics["setup_s"] = measure_setup(name, slot, size, setup_repeats)
        report.units = dict(END_TO_END_UNITS)
    return report


def make_workdir(root: str) -> str:
    workdir = os.path.join(root, ".perfbench-work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return workdir
