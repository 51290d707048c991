"""Per-stage wall-time attribution (``profile_run.py --stage-timers``).

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
"""

from __future__ import annotations

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
