"""The probe bus: per-stage, per-cycle counters on the stage kernel.

A :class:`ProbeBus` is attached to the kernel by
``Processor._finish_threads`` when ``config.telemetry`` is set, and the
kernel then steps through ``CycleScheduler.step_checked`` — the same
construction-time dispatch the sanitizer uses, so the plain
``step`` carries no telemetry branch and an uninstrumented run pays
nothing (the 39 golden fingerprints are the proof).

The bus never touches simulation state: it *samples* occupancy at the
top of the cycle (:meth:`ProbeBus.begin_cycle`) and *differences* the
kernel's own :class:`~repro.pipeline.stats.SimStats` counters at the
bottom (:meth:`ProbeBus.end_cycle`).  Each ``SimStats`` counter is
written by exactly one stage, so the per-cycle deltas attribute cleanly:

===============  =====================================================
stage group      counters (per measured window)
===============  =====================================================
fetch            instructions, wrong-path instructions, active cycles,
                 icache/redirect/throttle stall cycles
decode           instructions, active cycles, throttle stall cycles
rename           instructions, active cycles
issue            instructions, wrong-path instructions, active cycles,
                 selection-blocked events
writeback        completion-bucket drains, active cycles,
                 squashed instructions, squash recoveries
commit           instructions, active cycles
occupancy        per-cycle sums of ROB/IQ/LSQ and the two front-end
                 latches (divide by ``cycles`` for mean residency)
throttle         per-cycle residency of the effective fetch bandwidth
                 level (FULL/HALF/QUARTER/STALL) summed over threads
threads          per-thread committed/fetched/wrong-path/squashed plus
                 a per-thread ROB occupancy sum (the SMT split)
skip             cycles covered by the scheduler's next-event
                 fast-forward, window count, blocked-window count, and
                 a power-of-two window-length histogram
===============  =====================================================

Counters cover the *measured* window: ``Processor.reset_measurement``
resets the bus together with the statistics, so probe totals reconcile
exactly against the final ``SimStats`` (tests assert equality).
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
        "cycles",
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
        # Stage instruction counters and active-cycle counters.
        "fetched", "fetched_wrong_path", "fetch_active_cycles",
        "icache_stall_cycles", "redirect_stall_cycles",
        "fetch_throttled_cycles",
        "decoded", "decode_active_cycles", "decode_throttled_cycles",
        "renamed", "rename_active_cycles",
        "issued", "issued_wrong_path", "issue_active_cycles",
        "selection_blocked",
        "committed", "commit_active_cycles",
        "squashed_instructions", "squash_recoveries",
        # Last-seen SimStats values the per-cycle deltas difference against.
        "_last_fetched", "_last_fetched_wp", "_last_icache",
        "_last_redirect", "_last_fetch_throttled",
        "_last_decoded", "_last_decode_throttled", "_last_renamed",
        "_last_issued", "_last_issued_wp", "_last_selection_blocked",
        "_last_committed", "_last_squashed", "_last_squashes",
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
        self.cycles += 1
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
        """Difference the kernel's statistics counters at cycle bottom."""
        stats = kernel.stats

        value = stats.fetched
        delta = value - self._last_fetched
        if delta:
            self.fetched += delta
            self.fetch_active_cycles += 1
            self._last_fetched = value
        value = stats.fetched_wrong_path
        delta = value - self._last_fetched_wp
        if delta:
            self.fetched_wrong_path += delta
            self._last_fetched_wp = value
        value = stats.icache_stall_cycles
        delta = value - self._last_icache
        if delta:
            self.icache_stall_cycles += delta
            self._last_icache = value
        value = stats.redirect_stall_cycles
        delta = value - self._last_redirect
        if delta:
            self.redirect_stall_cycles += delta
            self._last_redirect = value
        value = stats.fetch_throttled_cycles
        delta = value - self._last_fetch_throttled
        if delta:
            self.fetch_throttled_cycles += delta
            self._last_fetch_throttled = value

        value = stats.decoded
        delta = value - self._last_decoded
        if delta:
            self.decoded += delta
            self.decode_active_cycles += 1
            self._last_decoded = value
        value = stats.decode_throttled_cycles
        delta = value - self._last_decode_throttled
        if delta:
            self.decode_throttled_cycles += delta
            self._last_decode_throttled = value
        value = stats.renamed
        delta = value - self._last_renamed
        if delta:
            self.renamed += delta
            self.rename_active_cycles += 1
            self._last_renamed = value

        value = stats.issued
        delta = value - self._last_issued
        if delta:
            self.issued += delta
            self.issue_active_cycles += 1
            self._last_issued = value
        value = stats.issued_wrong_path
        delta = value - self._last_issued_wp
        if delta:
            self.issued_wrong_path += delta
            self._last_issued_wp = value
        value = stats.selection_blocked
        delta = value - self._last_selection_blocked
        if delta:
            self.selection_blocked += delta
            self._last_selection_blocked = value

        pending = self._pending_writebacks
        if pending:
            self.writeback_drained += pending
            self.writeback_active_cycles += 1
        value = stats.squashed
        delta = value - self._last_squashed
        if delta:
            self.squashed_instructions += delta
            self._last_squashed = value
        value = stats.squashes
        delta = value - self._last_squashes
        if delta:
            self.squash_recoveries += delta
            self._last_squashes = value

        value = stats.committed
        delta = value - self._last_committed
        if delta:
            self.committed += delta
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
        move) scales its latch occupancies like any other sample.  The
        scheduler has already closed the window's stall/throttle
        statistics in batch before calling here, so the two fetch
        idle-regime counters are folded in by *differencing* against
        their last-seen values — exactly the ``end_cycle`` bookkeeping,
        valid for any mix of redirect-stalled and fetch-gated cycles (and
        a no-op on SMT windows, where an idle cycle picks no thread and
        moves no machine-level counter) — so a run ending on a skip still
        reconciles.  The window also feeds the skip telemetry: total
        skipped cycles, window count, blocked-window count, and a
        power-of-two window-length histogram.
        """
        self.cycles += count
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
        stats = kernel.stats
        value = stats.redirect_stall_cycles
        delta = value - self._last_redirect
        if delta:
            self.redirect_stall_cycles += delta
            self._last_redirect = value
        value = stats.fetch_throttled_cycles
        delta = value - self._last_fetch_throttled
        if delta:
            self.fetch_throttled_cycles += delta
            self._last_fetch_throttled = value

    # ------------------------------------------------------------------
    # Lifecycle and export
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter; called when the measured window opens.

        ``Processor.reset_measurement`` rebinds ``kernel.stats`` to a
        fresh :class:`SimStats`, so the last-seen values reset to zero
        with everything else and the next delta starts clean.
        """
        self.cycles = 0
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
        self.fetched = 0
        self.fetched_wrong_path = 0
        self.fetch_active_cycles = 0
        self.icache_stall_cycles = 0
        self.redirect_stall_cycles = 0
        self.fetch_throttled_cycles = 0
        self.decoded = 0
        self.decode_active_cycles = 0
        self.decode_throttled_cycles = 0
        self.renamed = 0
        self.rename_active_cycles = 0
        self.issued = 0
        self.issued_wrong_path = 0
        self.issue_active_cycles = 0
        self.selection_blocked = 0
        self.committed = 0
        self.commit_active_cycles = 0
        self.squashed_instructions = 0
        self.squash_recoveries = 0
        self._last_fetched = 0
        self._last_fetched_wp = 0
        self._last_icache = 0
        self._last_redirect = 0
        self._last_fetch_throttled = 0
        self._last_decoded = 0
        self._last_decode_throttled = 0
        self._last_renamed = 0
        self._last_issued = 0
        self._last_issued_wp = 0
        self._last_selection_blocked = 0
        self._last_committed = 0
        self._last_squashed = 0
        self._last_squashes = 0

    def snapshot(self) -> Dict:
        """A JSON-safe dict of every counter group (integer sums only,
        so a snapshot is exactly reproducible run to run)."""
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
            "cycles": self.cycles,
            "stages": {
                "fetch": {
                    "instructions": self.fetched,
                    "wrong_path": self.fetched_wrong_path,
                    "active_cycles": self.fetch_active_cycles,
                    "stall_icache": self.icache_stall_cycles,
                    "stall_redirect": self.redirect_stall_cycles,
                    "stall_throttle": self.fetch_throttled_cycles,
                },
                "decode": {
                    "instructions": self.decoded,
                    "active_cycles": self.decode_active_cycles,
                    "stall_throttle": self.decode_throttled_cycles,
                },
                "rename": {
                    "instructions": self.renamed,
                    "active_cycles": self.rename_active_cycles,
                },
                "issue": {
                    "instructions": self.issued,
                    "wrong_path": self.issued_wrong_path,
                    "active_cycles": self.issue_active_cycles,
                    "selection_blocked": self.selection_blocked,
                },
                "writeback": {
                    "instructions": self.writeback_drained,
                    "active_cycles": self.writeback_active_cycles,
                    "squashed": self.squashed_instructions,
                    "recoveries": self.squash_recoveries,
                },
                "commit": {
                    "instructions": self.committed,
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
