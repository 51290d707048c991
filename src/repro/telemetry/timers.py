"""Per-stage wall-time attribution and per-module call counts.

:class:`StageTimers` rebinds each stage component's ``tick`` on the
*instance* with a wrapper that accumulates wall seconds — the documented
extension point of the stage kernel (stage classes deliberately keep
``__dict__`` for exactly this; see ``SLOTS_ALLOWLIST`` in
``analysis/hotpath.py``).  Combined with the probe bus's active-cycle
counters it answers "which stage costs the time, and is it busy or just
ticking?" without cProfile's tracing overhead skewing the answer.

Attach where the timed window starts, read :meth:`StageTimers.report`
after.  To time the measured window alone, attach after the warm-up, as
the probe bus's counters reset there::

    processor = build_processor(cell)
    processor.run(cell.warmup)
    processor.reset_measurement()
    timers = StageTimers(processor).attach()
    processor.run(cell.instructions)
    for name, seconds, calls in timers.report():
        ...

:func:`repro_call_counts` is the counting rule of ``profile_run.py``'s
call table and of the cost ledger (``tests/test_cost_ledger.py``):
cProfile call counts of the ``repro`` package per module file, which
repeat exactly where wall time does not.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, List, Tuple

from repro.telemetry.clock import perf_time


class StageTimers:
    """Wall-seconds and call counts per stage of one processor."""

    def __init__(self, processor) -> None:
        self.processor = processor
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def attach(self) -> "StageTimers":
        """Wrap every stage's ``tick``; returns self for chaining."""
        for stage in self.processor.scheduler.stages:
            self._wrap(stage)
        return self

    def _wrap(self, stage) -> None:
        name = stage.name
        original = stage.tick
        self.seconds[name] = 0.0
        self.calls[name] = 0
        seconds = self.seconds
        calls = self.calls

        def timed_tick(cycle, activity):
            start = perf_time()
            original(cycle, activity)
            seconds[name] += perf_time() - start
            calls[name] += 1

        stage.tick = timed_tick

    def report(self) -> List[Tuple[str, float, int]]:
        """``(stage, wall seconds, tick calls)`` rows, slowest first."""
        rows = [
            (name, self.seconds[name], self.calls[name])
            for name in self.seconds
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())


_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# CPython 3.12 inlines these comprehensions into their enclosing frame
# (PEP 709), so earlier interpreters count calls 3.12 never makes.
# Generator expressions keep their own frame everywhere and are counted.
_INLINED_FRAMES = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))


def repro_call_counts(stats: pstats.Stats) -> Dict[str, Dict[str, int]]:
    """``{module file: {function name: ncalls}}`` of the ``repro`` package.

    Module files are relative to the package root
    (``pipeline/stages/fetch.py``); same-named functions of one module
    share a count.  Leaving out inlined-comprehension frames makes the
    counts identical across CPython 3.10-3.12 and hash seeds.
    """
    prefix = _PACKAGE_ROOT + os.sep
    counts: Dict[str, Dict[str, int]] = {}
    for (filename, _, function), row in stats.stats.items():
        path = os.path.abspath(filename)
        if not path.startswith(prefix) or function in _INLINED_FRAMES:
            continue
        module = path[len(prefix):].replace(os.sep, "/")
        per_function = counts.setdefault(module, {})
        per_function[function] = per_function.get(function, 0) + row[1]
    return counts
