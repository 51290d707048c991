"""Select/issue: pick ready instructions and start them executing.

Refreshes the functional-unit pool, then walks the threads in the cycle's
rotation order letting each thread's issue queue select ready
instructions oldest-first (honouring slot capacities, MSHR availability
and the controller's no-select bit), performs load D-cache accesses and
schedules each issued instruction's writeback into the completion wheel
(one masked ring index per scheduled completion).

When no thread has a ready instruction the stage returns before even
refreshing the FU pool: ``new_cycle`` is only observable through claims
(it refreshes the availability slots in place and trims the MSHR ledger
lazily against whatever cycle the next claimer passes), so deferring it
across ready-empty cycles is invisible.
"""

from __future__ import annotations

from operator import attrgetter

from repro.isa.opcodes import FU_MEM_READ as _FU_MEM_READ
from repro.isa.opcodes import FU_MEM_WRITE as _FU_MEM_WRITE
from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_BY_SEQ = attrgetter("seq")

_WINDOW = int(PowerUnit.WINDOW)
_LSQ = int(PowerUnit.LSQ)
_ALU = int(PowerUnit.ALU)
_DCACHE = int(PowerUnit.DCACHE)
_DCACHE2 = int(PowerUnit.DCACHE2)


class SelectIssueStage(Stage):
    """Out-of-order selection and execution start."""

    name = "issue"

    # Latch surfaces this stage may touch (CON001): consumes the ready
    # list and schedules completions.
    CONTRACT = {
        "reads": (),
        "writes": ("iq", "completions"),
    }

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self.width = kernel.config.issue_width
        self.extra_exec_latency = kernel.config.extra_exec_latency
        # Stable shared structures (never rebound on the kernel; the FU
        # pool refreshes its availability list in place, the completion
        # wheel rebinds ring slots but never the ring).
        self.memory = kernel.memory
        self.buckets = kernel.completions.buckets
        self.ring_mask = kernel.completions.mask
        self.far_buckets = kernel.completions.far_buckets
        self.try_claim_code = kernel.fu_pool.try_claim_code
        self.code_available = kernel.fu_pool._code_available

    def tick(self, cycle: int, activity) -> None:
        kernel = self.kernel
        if kernel.iq_count == 0:
            # No dispatched instruction anywhere, so nothing can be ready
            # and no slot can be claimed.
            return
        threads = kernel.threads
        count = len(threads)
        if count == 1:
            if not threads[0].iq.ready_list:
                # Everything dispatched is waiting on a wakeup; no claim
                # can happen, so the FU-pool refresh is deferred too.
                return
        else:
            for thread in threads:
                if thread.iq.ready_list:
                    break
            else:
                return
        fu_pool = kernel.fu_pool
        fu_pool.new_cycle(cycle)
        budget = self.width
        for offset in range(count):
            if budget <= 0:
                break
            thread = threads[(cycle + offset) % count]
            iq = thread.iq
            ready = iq.ready_list
            if not ready:
                continue
            # Select fused with the issue bookkeeping: walk the ready
            # instructions oldest first, claim slots, and start execution
            # in one pass (survivors stay ready for the next cycle).  The sort
            # only runs after a wakeup readied an older instruction
            # (``ready_sorted``); dispatch appends and the survivor
            # rebuild below keep the list in fetch order.
            if not iq.ready_sorted:
                if len(ready) > 1:
                    ready.sort(key=_BY_SEQ)
                iq.ready_sorted = True
            if thread.ctrl_blocks_selection:
                controller_blocks = thread.controller.blocks_selection
            else:
                controller_blocks = None
            stats = kernel.stats
            memory = self.memory
            ring = self.buckets
            ring_mask = self.ring_mask
            extra_exec = self.extra_exec_latency
            try_claim_code = self.try_claim_code
            code_available = self.code_available
            survivors = []
            survive = survivors.append
            issued = 0
            wrong_path = 0
            lsq_accesses = 0
            dcache_accesses = 0
            dcache2_accesses = 0
            # Miss fills allocated this cycle must not influence this
            # cycle's remaining MSHR-availability checks (selection reads
            # the *start-of-select* MSHR state); defer them to the end of
            # the thread's pass.
            mshr_holds = None
            for instr in ready:
                if instr.squashed or instr.issued:
                    continue
                if issued >= budget:
                    survive(instr)
                    continue
                if controller_blocks is not None and controller_blocks(instr):
                    stats.selection_blocked += 1
                    survive(instr)
                    continue
                static = instr.static
                code = static.fu_code
                if code == _FU_MEM_READ or code == _FU_MEM_WRITE:
                    # Shared memory ports + MSHR availability.
                    if not try_claim_code(code):
                        survive(instr)
                        continue
                elif code_available[code] > 0:
                    code_available[code] -= 1
                else:
                    survive(instr)
                    continue
                instr.issued = True
                issued += 1
                latency = static.latency + extra_exec
                if static.is_load:
                    mem_latency, l1_hit = memory.load_data(instr.mem_address)
                    dcache_accesses += 1
                    instr.dcache_missed = not l1_hit
                    if not l1_hit:
                        dcache2_accesses += 1
                        # The miss occupies an MSHR until the fill returns;
                        # squashing the load does not recall the fill.
                        if mshr_holds is None:
                            mshr_holds = [cycle + mem_latency]
                        else:
                            mshr_holds.append(cycle + mem_latency)
                    latency += mem_latency
                    lsq_accesses += 1
                elif static.is_store:
                    lsq_accesses += 1
                if instr.on_wrong_path:
                    wrong_path += 1
                if latency <= ring_mask:
                    ring[(cycle + latency) & ring_mask].append(instr)
                else:
                    # Beyond the ring horizon (impossible under shipped
                    # configurations — the ring is sized for the worst
                    # walk — but kept correct): the far-bucket dict.
                    far = self.far_buckets
                    complete = cycle + latency
                    bucket = far.get(complete)
                    if bucket is None:
                        far[complete] = [instr]
                    else:
                        bucket.append(instr)
            iq.ready_list = survivors
            if mshr_holds is not None:
                hold_mshr = fu_pool.hold_mshr
                for until in mshr_holds:
                    hold_mshr(until)
            if issued:
                activity[_WINDOW] += issued
                activity[_ALU] += issued
                if lsq_accesses:
                    activity[_LSQ] += lsq_accesses
                    activity[_DCACHE] += dcache_accesses
                    activity[_DCACHE2] += dcache2_accesses
                iq.count -= issued
                kernel.iq_count -= issued
                stats.issued += issued
                budget -= issued
                if wrong_path:
                    stats.issued_wrong_path += wrong_path
