"""The probe bus: per-stage, per-cycle counters on the stage kernel.

A :class:`ProbeBus` is attached to the kernel by
``Processor._finish_threads`` when ``config.telemetry`` is set, and the
kernel then steps through ``CycleScheduler.step_checked`` — the same
construction-time dispatch the sanitizer uses, so the plain
``step`` carries no telemetry branch and an uninstrumented run pays
nothing (the 39 golden fingerprints are the proof).

The bus never touches simulation state, and it keeps no copy of a count
the kernel's own :class:`~repro.pipeline.stats.SimStats` already holds:
:meth:`ProbeBus.snapshot` reads those straight from ``kernel.stats``.
The bus itself keeps only what ``SimStats`` lacks, sampled at the top
of the cycle (:meth:`ProbeBus.begin_cycle`) and at the bottom
(:meth:`ProbeBus.end_cycle`):

===============  ==================================  ======================
stage group      from ``SimStats``                   kept by the bus
===============  ==================================  ======================
(window)         cycles
fetch            instructions, wrong-path            active cycles
                 instructions, icache/redirect/
                 throttle stall cycles
decode           instructions, throttle stall        active cycles
                 cycles
rename           instructions                        active cycles
issue            instructions, wrong-path            active cycles
                 instructions, selection-blocked
                 events
writeback        squashed instructions, squash       completion-bucket
                 recoveries                          drains, active cycles
commit           instructions                        active cycles
occupancy                                            per-cycle sums of
                                                     ROB/IQ/LSQ and the two
                                                     front-end latches
throttle                                             per-cycle residency of
                                                     the effective fetch
                                                     bandwidth level
                                                     (FULL/HALF/QUARTER/
                                                     STALL) over threads
threads          per-thread committed/fetched/       per-thread ROB
                 wrong-path/squashed (thread         occupancy sum (the SMT
                 counters)                           split)
skip                                                 fast-forwarded cycles,
                                                     window count, blocked-
                                                     window count, power-of-
                                                     two length histogram
===============  ==================================  ======================

A stage is *active* in a cycle when its ``SimStats`` instruction counter
moved (the writeback stage: when its completion bucket was non-empty);
the bus remembers the last-seen value of those five counters only.
Divide an occupancy sum by ``cycles`` for mean residency.

Counters cover the *measured* window: ``Processor.reset_measurement``
resets the bus together with the statistics, so the bus's own sums
cover exactly the cycles ``SimStats`` counts (tests assert that the
throttle residency sums to ``cycles`` per thread).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.levels import BandwidthLevel
from repro.core.throttler import SelectiveThrottler

_LEVEL_NAMES = tuple(level.name for level in BandwidthLevel)


class ProbeBus:
    """Per-cycle counter groups for one kernel (see module docstring).

    Slotted like the rest of the per-cycle machinery: when telemetry is
    on the bus runs twice per cycle, and plain-slot increments keep the
    instrumented-run overhead proportional to what it measures.
    """

    __slots__ = (
        "kernel", "nthreads", "_throttlers", "_unthrottled",
        # Occupancy residency (per-cycle sums).
        "rob_occupancy_sum", "iq_occupancy_sum", "lsq_occupancy_sum",
        "fetch_latch_sum", "decode_latch_sum",
        # Throttle-level residency: index = BandwidthLevel value.
        "throttle_residency",
        # Per-thread ROB occupancy sums (index = thread id).
        "thread_rob_sum",
        # Cycle-skip fast-forward accounting (next-event engine).
        "skipped_cycles", "skip_windows", "blocked_windows", "skip_length_hist",
        # Writeback volume sampled before the stage drains its bucket.
        "_pending_writebacks", "writeback_drained", "writeback_active_cycles",
        # Per-stage active-cycle counters.
        "fetch_active_cycles", "decode_active_cycles", "rename_active_cycles",
        "issue_active_cycles", "commit_active_cycles",
        # Last-seen SimStats instruction counters the activity tests read.
        "_last_fetched", "_last_decoded", "_last_renamed",
        "_last_issued", "_last_committed",
    )

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.nthreads = len(kernel.threads)
        # Threads driven by a SelectiveThrottler expose their effective
        # fetch bandwidth level; every other controller (baseline,
        # gating, oracle) fetches at FULL whenever it fetches at all.
        self._throttlers = [
            thread.controller
            for thread in kernel.threads
            if isinstance(thread.controller, SelectiveThrottler)
        ]
        self._unthrottled = self.nthreads - len(self._throttlers)
        self.reset()

    # ------------------------------------------------------------------
    # The per-cycle sampling API (called by step_checked)
    # ------------------------------------------------------------------

    def begin_cycle(self, kernel, cycle: int) -> None:
        """Sample occupancy and pending writeback volume at cycle top."""
        self.rob_occupancy_sum += kernel.rob_count
        self.iq_occupancy_sum += kernel.iq_count
        self.lsq_occupancy_sum += kernel.lsq_count
        # Writeback volume must be read before the writeback stage drains
        # this cycle's completion bucket (``pending_at`` is the completion
        # wheel's probe API).
        self._pending_writebacks = kernel.completions.pending_at(cycle)
        thread_rob = self.thread_rob_sum
        for index, thread in enumerate(kernel.threads):
            self.fetch_latch_sum += len(thread.fetch_latch)
            self.decode_latch_sum += len(thread.decode_latch)
            thread_rob[index] += len(thread.rob_entries)
        residency = self.throttle_residency
        for controller in self._throttlers:
            residency[controller._fetch_level] += 1
        residency[0] += self._unthrottled

    def end_cycle(self, kernel) -> None:
        """Count the stages whose instruction counter moved this cycle."""
        stats = kernel.stats
        value = stats.fetched
        if value != self._last_fetched:
            self.fetch_active_cycles += 1
            self._last_fetched = value
        value = stats.decoded
        if value != self._last_decoded:
            self.decode_active_cycles += 1
            self._last_decoded = value
        value = stats.renamed
        if value != self._last_renamed:
            self.rename_active_cycles += 1
            self._last_renamed = value
        value = stats.issued
        if value != self._last_issued:
            self.issue_active_cycles += 1
            self._last_issued = value
        pending = self._pending_writebacks
        if pending:
            self.writeback_drained += pending
            self.writeback_active_cycles += 1
        value = stats.committed
        if value != self._last_committed:
            self.commit_active_cycles += 1
            self._last_committed = value

    def idle_cycles(self, kernel, count: int) -> None:
        """Account a fast-forwarded window of provably idle cycles.

        The scheduler's next-event engine only fires when every
        per-cycle sample is constant across the window — occupancies,
        latch contents and throttle levels frozen (no stage moves an
        instruction, so no controller hook fires), nothing pending in
        the completion wheel — so the bus takes each sample once and
        scales it by ``count``.  A *blocked* window (the machine is not
        empty: a latch or a ready list holds instructions that cannot
        move) scales its latch occupancies like any other sample.  No
        stage is active and no instruction counter moves, so the
        activity tests have nothing to record; the window's stall and
        throttle cycles the scheduler closes in ``SimStats`` itself.
        The window also feeds the skip telemetry: total skipped cycles,
        window count, blocked-window count, and a power-of-two
        window-length histogram.
        """
        self.skipped_cycles += count
        self.skip_windows += 1
        bucket = 1 << (count.bit_length() - 1)
        hist = self.skip_length_hist
        hist[bucket] = hist.get(bucket, 0) + 1
        self.rob_occupancy_sum += kernel.rob_count * count
        self.iq_occupancy_sum += kernel.iq_count * count
        self.lsq_occupancy_sum += kernel.lsq_count * count
        thread_rob = self.thread_rob_sum
        blocked = False
        for index, thread in enumerate(kernel.threads):
            thread_rob[index] += len(thread.rob_entries) * count
            fetch_latched = len(thread.fetch_latch)
            decode_latched = len(thread.decode_latch)
            self.fetch_latch_sum += fetch_latched * count
            self.decode_latch_sum += decode_latched * count
            if fetch_latched or decode_latched or thread.iq.ready_list:
                blocked = True
        if blocked:
            self.blocked_windows += 1
        residency = self.throttle_residency
        for controller in self._throttlers:
            residency[controller._fetch_level] += count
        residency[0] += self._unthrottled * count

    # ------------------------------------------------------------------
    # Lifecycle and export
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter; called when the measured window opens.

        ``Processor.reset_measurement`` rebinds ``kernel.stats`` to a
        fresh :class:`SimStats`, so the last-seen values reset to zero
        with everything else and the next activity test starts clean.
        """
        self.rob_occupancy_sum = 0
        self.iq_occupancy_sum = 0
        self.lsq_occupancy_sum = 0
        self.fetch_latch_sum = 0
        self.decode_latch_sum = 0
        self.throttle_residency = [0] * len(_LEVEL_NAMES)
        self.thread_rob_sum = [0] * self.nthreads
        self.skipped_cycles = 0
        self.skip_windows = 0
        self.blocked_windows = 0
        self.skip_length_hist = {}
        self._pending_writebacks = 0
        self.writeback_drained = 0
        self.writeback_active_cycles = 0
        self.fetch_active_cycles = 0
        self.decode_active_cycles = 0
        self.rename_active_cycles = 0
        self.issue_active_cycles = 0
        self.commit_active_cycles = 0
        self._last_fetched = 0
        self._last_decoded = 0
        self._last_renamed = 0
        self._last_issued = 0
        self._last_committed = 0

    def snapshot(self) -> Dict:
        """A JSON-safe dict of every counter group (integer sums only,
        so a snapshot is exactly reproducible run to run).  Instruction
        and stall counts come from ``kernel.stats``; the rest is the
        bus's own."""
        stats = self.kernel.stats
        threads: List[Dict] = []
        for index, thread in enumerate(self.kernel.threads):
            threads.append({
                "thread": index,
                "committed": thread.committed,
                "fetched": thread.fetched,
                "fetched_wrong_path": thread.fetched_wrong_path,
                "squashed": thread.squashed,
                "rob_occupancy_sum": self.thread_rob_sum[index],
            })
        return {
            "cycles": stats.cycles,
            "stages": {
                "fetch": {
                    "instructions": stats.fetched,
                    "wrong_path": stats.fetched_wrong_path,
                    "active_cycles": self.fetch_active_cycles,
                    "stall_icache": stats.icache_stall_cycles,
                    "stall_redirect": stats.redirect_stall_cycles,
                    "stall_throttle": stats.fetch_throttled_cycles,
                },
                "decode": {
                    "instructions": stats.decoded,
                    "active_cycles": self.decode_active_cycles,
                    "stall_throttle": stats.decode_throttled_cycles,
                },
                "rename": {
                    "instructions": stats.renamed,
                    "active_cycles": self.rename_active_cycles,
                },
                "issue": {
                    "instructions": stats.issued,
                    "wrong_path": stats.issued_wrong_path,
                    "active_cycles": self.issue_active_cycles,
                    "selection_blocked": stats.selection_blocked,
                },
                "writeback": {
                    "instructions": self.writeback_drained,
                    "active_cycles": self.writeback_active_cycles,
                    "squashed": stats.squashed,
                    "recoveries": stats.squashes,
                },
                "commit": {
                    "instructions": stats.committed,
                    "active_cycles": self.commit_active_cycles,
                },
            },
            "occupancy": {
                "rob_sum": self.rob_occupancy_sum,
                "iq_sum": self.iq_occupancy_sum,
                "lsq_sum": self.lsq_occupancy_sum,
                "fetch_latch_sum": self.fetch_latch_sum,
                "decode_latch_sum": self.decode_latch_sum,
            },
            "throttle_residency": {
                name: self.throttle_residency[index]
                for index, name in enumerate(_LEVEL_NAMES)
            },
            "skip": {
                "skipped_cycles": self.skipped_cycles,
                "windows": self.skip_windows,
                # Windows the machine was blocked, not empty: a latch or
                # a ready list held instructions that could not move.
                "blocked_windows": self.blocked_windows,
                # Window lengths bucketed by power of two (key = bucket
                # lower bound); JSON object keys must be strings.
                "length_hist": {
                    str(bucket): self.skip_length_hist[bucket]
                    for bucket in sorted(self.skip_length_hist)
                },
            },
            "threads": threads,
        }
