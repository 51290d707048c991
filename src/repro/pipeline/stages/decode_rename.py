"""Decode and rename/dispatch: the in-order middle of the machine.

One stage component covers the two in-order phases between the fetch latch
and the out-of-order back-end.  Per cycle (reverse pipeline order, so
rename drains the decode latch before decode refills it):

* **rename/dispatch** — pull decoded instructions whose latch delay has
  elapsed, rename their registers, take a map checkpoint at conditional
  branches, and allocate ROB/IQ/LSQ entries, stalling on any structural
  hazard (per-thread partition or the shared-capacity caps of an SMT core
  in ``shared`` mode — tracked by the kernel's incremental occupancy
  counters, not a per-cycle rescan);
* **decode** — pull fetched instructions through the decode gate, where a
  speculation controller may hold instructions younger than a throttling
  branch (the paper's decode throttling), and hand them to the decode
  latch with the configured decode→rename delay.

Both latches are :class:`~repro.pipeline.arrays.LatchArray` columns:
rename walks ``instrs``/``stamps`` by head index, and the decode move —
which touches no per-instruction state unless gated or observed — takes
the whole elapsed-stamp run en bloc with a ``bisect`` on the stamp
column and two list ``extend`` calls.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.isa.registers import REG_ZERO as _REG_ZERO
from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_REGFILE = int(PowerUnit.REGFILE)
_RENAME = int(PowerUnit.RENAME)
_WINDOW = int(PowerUnit.WINDOW)
_LSQ = int(PowerUnit.LSQ)


class DecodeRenameStage(Stage):
    """Decode gate plus rename/dispatch into the back-end."""

    name = "decode-rename"

    # Latch surfaces this stage may touch (CON001): drains the fetch
    # latch into the decode latch, then renames/dispatches into every
    # back-end structure.
    CONTRACT = {
        "reads": (),
        "writes": (
            "fetch_latch", "decode_latch", "rob", "iq", "lsq", "renamer",
        ),
    }

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self.width = kernel.config.decode_width
        self.decode_to_rename_latency = kernel.config.decode_to_rename_latency
        # Cycle of the last counted decode throttle (one count per cycle
        # however many threads stall).
        self._throttled_cycle = -1

    def tick(self, cycle: int, activity) -> None:
        threads = self.kernel.threads
        count = len(threads)
        if count == 1:
            # Skip the stage calls outright on latch-empty cycles (the
            # head/len probe is two C-level loads, no method call).
            thread = threads[0]
            decode_latch = thread.decode_latch
            if decode_latch.head < len(decode_latch.instrs):
                self._rename_thread(thread, cycle, activity, self.width)
            fetch_latch = thread.fetch_latch
            if fetch_latch.head < len(fetch_latch.instrs):
                self._decode_thread(thread, cycle, self.width)
            return
        budget = self.width
        for offset in range(count):
            if budget <= 0:
                break
            thread = threads[(cycle + offset) % count]
            budget -= self._rename_thread(thread, cycle, activity, budget)
        budget = self.width
        for offset in range(count):
            if budget <= 0:
                break
            thread = threads[(cycle + offset) % count]
            budget -= self._decode_thread(thread, cycle, budget)

    # ------------------------------------------------------------------
    # Rename / dispatch
    # ------------------------------------------------------------------

    def _rename_thread(self, thread, cycle: int, activity, budget: int) -> int:
        kernel = self.kernel
        latch = thread.decode_latch
        instrs = latch.instrs
        stamps = latch.stamps
        head = latch.head
        tail = len(instrs)
        if head == tail:
            return 0
        rob = thread.rob
        rob_entries = rob.entries
        iq = thread.iq
        iq_start = iq.count
        iq_ready = iq.ready_list
        iq_waiters = iq.waiters
        lsq = thread.lsq
        lsq_start = lsq.occupied
        lsq_size = lsq.size
        # One fused structural limit: the while-condition folds the ROB,
        # IQ and width bounds (each renamed instruction consumes exactly
        # one entry of each); only the LSQ check stays per-instruction.
        limit = rob.size - len(rob_entries)
        iq_space = iq.size - iq_start
        if iq_space < limit:
            limit = iq_space
        if budget < limit:
            limit = budget
        renamer = thread.renamer
        # Stable for the whole tick: ``restore`` (which rebinds the map)
        # only runs during writeback recovery, never mid-rename.
        rmap = renamer._map
        pending_tags = renamer.pending_tags
        shared_caps = kernel.shared_caps
        has_shared_caps = shared_caps is not None
        append_rob = rob_entries.append
        append_ready = iq_ready.append
        stamp = kernel.observer is not None
        renamed = 0
        mem_renamed = 0
        regfile_reads = 0
        while renamed < limit and head < tail:
            if stamps[head] > cycle:
                break
            instr = instrs[head]
            if instr.squashed:
                head += 1
                continue
            static = instr.static
            is_mem = static.is_mem
            if is_mem and lsq_start + mem_renamed >= lsq_size:
                break
            if has_shared_caps:
                # The kernel counters are batch-updated after the loop, so
                # add this loop's own allocations to see the live totals.
                if (
                    kernel.rob_count + renamed >= shared_caps[0]
                    or kernel.iq_count + renamed >= shared_caps[1]
                    or (is_mem and kernel.lsq_count + mem_renamed >= shared_caps[2])
                ):
                    break
            head += 1
            if stamp:
                instr.rename_cycle = cycle
            # Back-end slots (issue/completion state, physical dest) are
            # first read after dispatch, so they are stamped here rather
            # than on every fetched instruction (wrong-path work squashed
            # in the front-end latches never pays for them).
            instr.issued = False
            instr.completed = False
            instr.woke = False

            # Rename (RegisterRenamer.rename, inlined): map sources to
            # producing tags, collect the still-pending ones as the wakeup
            # set, and claim the destination.  ``phys_sources`` is not
            # materialised here — nothing in the pipeline reads it (the
            # standalone RegisterRenamer.rename keeps setting it).
            static_sources = static.sources
            waits = None
            if static_sources:
                for reg in static_sources:
                    tag = rmap[reg]
                    if tag in pending_tags:
                        if waits is None:
                            waits = [tag]
                        else:
                            waits.append(tag)
                regfile_reads += len(static_sources)
            dest = static.dest
            if dest is not None and dest != _REG_ZERO:
                tag = instr.seq
                rmap[dest] = tag
                instr.phys_dest = tag
                pending_tags.add(tag)
            else:
                instr.phys_dest = -1

            if static.is_cond_branch:
                instr.rename_checkpoint = rmap.copy()
            append_rob(instr)
            if is_mem:
                lsq.occupied += 1
                mem_renamed += 1

            # Dispatch (IssueQueue.dispatch, inlined): park behind pending
            # source tags, or go straight to the ready list.
            pending = 0
            if waits is not None:
                for tag in waits:
                    pending += 1
                    bucket = iq_waiters.get(tag)
                    if bucket is None:
                        iq_waiters[tag] = [instr]
                    else:
                        bucket.append(instr)
            instr.ready_sources = pending
            if pending == 0:
                append_ready(instr)
            renamed += 1
        latch.advance(head)
        if renamed:
            activity[_RENAME] += renamed
            activity[_WINDOW] += renamed
            if regfile_reads:
                activity[_REGFILE] += regfile_reads
            if mem_renamed:
                activity[_LSQ] += mem_renamed
            iq.count = iq_start + renamed
            kernel.stats.renamed += renamed
            kernel.rob_count += renamed
            kernel.iq_count += renamed
            kernel.lsq_count += mem_renamed
        return renamed

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def _decode_thread(self, thread, cycle: int, budget: int) -> int:
        latch = thread.fetch_latch
        instrs = latch.instrs
        head = latch.head
        tail = len(instrs)
        if head == tail:
            return 0
        stamps = latch.stamps
        kernel = self.kernel
        out = thread.decode_latch
        ready_cycle = cycle + self.decode_to_rename_latency
        gated = thread.ctrl_blocks_decode
        stamp = kernel.observer is not None
        limit = head + budget
        if limit > tail:
            limit = tail
        if not gated and not stamp:
            # En-bloc fast path: the elapsed-stamp prefix moves in two
            # list extends.  Stamps are monotone (single producer at a
            # constant latency), so the common whole-window case is one
            # tail comparison and anything else one bisect.  Squashed
            # entries cannot be resident: recovery marks and clears both
            # latches in the same call, before this stage runs.
            if stamps[limit - 1] <= cycle:
                end = limit
            else:
                end = bisect_right(stamps, cycle, head, limit)
            moved = end - head
            if moved:
                out.instrs.extend(instrs[head:end])
                out.stamps.extend([ready_cycle] * moved)
                latch.advance(end)
                kernel.stats.decoded += moved
            return moved
        controller = thread.controller
        out_instrs = out.instrs
        out_stamps = out.stamps
        moved = 0
        while moved < budget and head < tail:
            if stamps[head] > cycle:
                break
            instr = instrs[head]
            if instr.squashed:
                head += 1
                continue
            if gated and controller.blocks_decode(cycle, instr):
                # Count a throttled cycle once, whichever thread stalls.
                if self._throttled_cycle != cycle:
                    self._throttled_cycle = cycle
                    kernel.stats.decode_throttled_cycles += 1
                break
            head += 1
            if stamp:
                instr.decode_cycle = cycle
            out_instrs.append(instr)
            out_stamps.append(ready_cycle)
            moved += 1
        latch.advance(head)
        if moved:
            kernel.stats.decoded += moved
        return moved
