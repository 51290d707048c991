"""Execute/writeback: result broadcast and branch resolution.

Issued instructions sit in the kernel's
:class:`~repro.pipeline.arrays.CompletionWheel` until their completion
cycle arrives; this stage drains the cycle's ring slot in fetch
(sequence) order, marks results complete, broadcasts destination tags into
the owning thread's issue-queue wakeup network, and resolves conditional
branches — notifying the thread's speculation controller and invoking the
commit stage's recovery path for mispredictions.

The drain is one masked ring index and a slot rebind; a broadcast that
woke dependents records ``instr.woke`` (the window-wakeup power access
is derived from the flag by ``materialize_tally``).
"""

from __future__ import annotations

from operator import attrgetter

from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_WINDOW = int(PowerUnit.WINDOW)
_RESULTBUS = int(PowerUnit.RESULTBUS)

_BY_SEQ = attrgetter("seq")

_FRESH_SLOT: list = []


class ExecuteWritebackStage(Stage):
    """Drain the completion wheel; wake dependents; resolve branches."""

    name = "writeback"

    # Latch surfaces this stage may touch (CON001): pops the cycle's
    # completion bucket, clears busy tags and wakes IQ dependents.
    CONTRACT = {
        "reads": (),
        "writes": ("completions", "renamer", "iq"),
    }

    def __init__(self, kernel, recovery) -> None:
        super().__init__(kernel)
        # The commit stage owns squash/repair; branch resolution calls
        # into it through this explicit reference.
        self.recovery = recovery
        self.buckets = kernel.completions.buckets
        self.ring_mask = kernel.completions.mask
        self.far_buckets = kernel.completions.far_buckets

    def tick(self, cycle: int, activity) -> None:
        ring = self.buckets
        index = cycle & self.ring_mask
        events = ring[index]
        if events:
            ring[index] = []
        far = self.far_buckets
        if far:
            extra = far.pop(cycle, None)
            if extra:
                events = events + extra if events else extra
        if not events:
            return
        if len(events) > 1:
            events.sort(key=_BY_SEQ)
        threads = self.kernel.threads
        recover = self.recovery.recover
        if len(threads) == 1:
            # Single-thread fast path: one set of per-thread structures for
            # the whole event bin.  Both loops inline the issue queue's
            # tag wakeup.
            thread = threads[0]
            pending_tags = thread.renamer.pending_tags
            iq = thread.iq
            waiters = iq.waiters
            broadcasts = 0
            wakeups = 0
            for instr in events:
                if instr.squashed:
                    continue
                instr.completed = True
                tag = instr.phys_dest
                if tag >= 0:
                    pending_tags.discard(tag)
                    broadcasts += 1
                    waiting = waiters.pop(tag, None)
                    if waiting is not None:
                        woken = 0
                        ready = iq.ready_list
                        for waiter in waiting:
                            if waiter.squashed or waiter.issued:
                                continue
                            waiter.ready_sources -= 1
                            if waiter.ready_sources == 0:
                                ready.append(waiter)
                                iq.ready_sorted = False
                            woken += 1
                        if woken:
                            wakeups += 1
                            instr.woke = True
                if instr.static.is_cond_branch:
                    if instr.lowconf:
                        instr.lowconf = False
                        thread.lowconf_inflight -= 1
                    if thread.ctrl_has_resolve_hook:
                        thread.controller.on_branch_resolved(instr)
                    if instr.mispredicted:
                        recover(thread, instr, cycle)
            if broadcasts:
                activity[_RESULTBUS] += broadcasts
                if wakeups:
                    activity[_WINDOW] += wakeups
            return
        broadcasts = 0
        wakeups = 0
        for instr in events:
            if instr.squashed:
                continue
            thread = threads[instr.thread_id]
            instr.completed = True
            tag = instr.phys_dest
            if tag >= 0:
                thread.renamer.pending_tags.discard(tag)
                broadcasts += 1
                iq = thread.iq
                waiting = iq.waiters.pop(tag, None)
                if waiting is not None:
                    woken = 0
                    ready = iq.ready_list
                    for waiter in waiting:
                        if waiter.squashed or waiter.issued:
                            continue
                        waiter.ready_sources -= 1
                        if waiter.ready_sources == 0:
                            ready.append(waiter)
                            iq.ready_sorted = False
                        woken += 1
                    if woken:
                        wakeups += 1
                        instr.woke = True
            if instr.static.is_cond_branch:
                if instr.lowconf:
                    instr.lowconf = False
                    thread.lowconf_inflight -= 1
                if thread.ctrl_has_resolve_hook:
                    thread.controller.on_branch_resolved(instr)
                if instr.mispredicted:
                    recover(thread, instr, cycle)
        if broadcasts:
            activity[_RESULTBUS] += broadcasts
            if wakeups:
                activity[_WINDOW] += wakeups
