"""Pinned object-backed stage kernel (the pre-array representation).

This module is a mechanical snapshot of the five stage files and the
cycle scheduler exactly as they stood before the array-backed kernel
rewrite (PR 8): deque-backed :class:`~repro.pipeline.stages.latch.PipeLatch`
front-end latches, a dict-of-buckets
:class:`~repro.pipeline.stages.latch.CompletionLatch`, and per-instruction
``unit_accesses`` tallies maintained by every stage.  It is selected with
``ProcessorConfig.kernel == "object"`` (env ``REPRO_KERNEL=object``) and
exists for two reasons:

* **same-process A/B benchmarking** — ``bench_core_throughput.py
  --interleave`` alternates object/array passes inside one process, so the
  recorded speedup ratio is immune to the ~10% cross-session clock wander
  documented in ``BENCH_core.json``;
* **equivalence testing** — ``tests/test_kernel_equivalence.py`` drives
  randomized micro-programs through both kernels and asserts identical
  commit sequences, statistics and fingerprints, beyond the 38 golden
  fingerprints both kernels must reproduce.

Because it is a snapshot, the code below is intentionally verbatim
(section markers aside, classes renamed with an ``Object`` prefix); do
not "improve" it — its value is bit-identical behaviour to the
representation the array kernel replaced.  See docs/ARCHITECTURE.md
("Array kernel") for the representation comparison.
"""

from __future__ import annotations


# ======================================================================
# snapshot of stages/fetch.py
# ======================================================================

"""Fetch: walk the predicted path and fill the fetch latch.

The front-end fetches along its *predictions*: the thread's
:class:`~repro.frontend.supply.InstructionSupply` serves true-path records
while predictions are correct, and a misprediction diverges fetch onto a
wrong-path packet walk of the same CFG (real wrong-path code that fetches,
decodes and executes until the branch resolves).  Per fetched line the
I-cache is probed once; a miss stalls the thread's fetch until the fill
returns.  Conditional branches consult predictor, BTB, RAS and the
confidence estimator, arm the speculation controller's throttling hooks,
and record the cursor fetch must resume from if they turn out
mispredicted.

**Packet consumption.**  True-path records are indexed straight out of
the supply's ring.  Wrong-path records come in per-block packets: the
supply stamps one block at a time (``wrong_packet``), the thread keeps a
packet cursor (``wp_packet``/``wp_pos``), and only a packet's *last*
record can be a control instruction — so the inner loop pays one Python
call per wrong-path *block* instead of one per instruction.  Branch
recovery still works on the seed walker's ``(block, index, stack, step)``
cursors; anything that re-points ``thread.wp_cursor`` outside this loop
clears the packet.

On an SMT core the single fetch port is arbitrated by the kernel's fetch
policy; the single-thread machine skips the policy entirely.
"""


from repro.errors import SimulationError
from repro.isa.instruction import DynamicInstruction
from repro.isa.opcodes import Opcode
from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_ICACHE = int(PowerUnit.ICACHE)
_BPRED = int(PowerUnit.BPRED)
_DCACHE2 = int(PowerUnit.DCACHE2)

_CALL = Opcode.CALL
_RET = Opcode.RET

_NEW_INSTR = DynamicInstruction.__new__
_DYN = DynamicInstruction


class ObjectFetchStage(Stage):
    """Front-end instruction supply along the predicted path."""

    name = "fetch"

    # Latch surfaces this stage may touch (CON001): appends to the fetch
    # latch only; the decode-latch read is the shared-buffer occupancy
    # gate.
    CONTRACT = {
        "reads": ("decode_latch",),
        "writes": ("fetch_latch",),
    }

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        config = kernel.config
        self.width = config.fetch_width
        self.max_taken_branches = config.max_taken_branches_per_cycle
        self.fetch_to_decode_latency = config.fetch_to_decode_latency
        self.line_shift = config.line_bytes.bit_length() - 1
        # Stable aliases of the I-cache internals for the inlined MRU
        # probe (the set array and stats objects are mutated in place,
        # never rebound).
        icache = kernel.memory.icache
        self._icache_sets = icache._sets
        self._icache_stats = icache.stats
        self._icache_set_mask = icache._set_mask

    def tick(self, cycle: int, activity) -> None:
        kernel = self.kernel
        threads = kernel.threads
        if len(threads) == 1:
            self._fetch_thread(threads[0], cycle, activity)
            return
        if kernel.fetch_policy is None:
            raise SimulationError("a multi-thread processor needs a fetch policy")
        thread = kernel.fetch_policy.pick(kernel, cycle)
        if thread is None:
            return
        self._fetch_thread(thread, cycle, activity)

    def _fetch_thread(self, thread, cycle: int, activity) -> None:
        kernel = self.kernel
        stats = kernel.stats
        if cycle < thread.fetch_stall_until:
            stats.redirect_stall_cycles += 1
            return
        controller = thread.controller
        if thread.ctrl_gates_fetch and not controller.fetch_allowed(cycle):
            stats.fetch_throttled_cycles += 1
            return
        if thread.ctrl_blocks_wp_fetch and thread.fetch_mode == "wrong":
            # Oracle fetch: wait at the misprediction until resolution.
            return
        fetch_entries = thread.fetch_entries
        capacity = (
            thread.fetch_buffer - len(fetch_entries) - len(thread.decode_entries)
        )
        if capacity <= 0:
            return

        width = self.width
        if capacity < width:
            width = capacity
        max_taken = self.max_taken_branches
        decode_latency = self.fetch_to_decode_latency
        supply = thread.supply
        memory = kernel.memory
        line_shift = self.line_shift
        # Inlined I-cache MRU probe (same line granularity: both shifts
        # derive from config.line_bytes).  The hit-at-MRU case — the
        # overwhelmingly common one — accounts the access and skips two
        # call frames; anything else takes the full hierarchy walk.
        icache_sets = self._icache_sets
        icache_stats = self._icache_stats
        icache_set_mask = self._icache_set_mask
        mem_offset = thread.mem_offset
        thread_id = thread.thread_id
        thread.fetch_cycles += 1
        seq = kernel.seq
        # True-path fast path: the supply's ring is stable for the whole
        # tick (pruning happens at commit, generation appends in place), so
        # already-materialised records are indexed directly.
        true_records = supply._records
        true_base = supply._base
        num_records = len(true_records)
        append_instr = fetch_entries.append

        fetched = 0
        wrong_path = 0
        branches = 0
        taken_branches = 0
        current_line = -1
        ready_cycle = cycle + decode_latency
        # Only control instructions can change the path mode or jump the
        # cursors, so mode and packet state are tracked in locals and
        # synced with the thread around each branch (and at every loop
        # exit).  ``wp_cursor`` is always the continuation *after* the
        # in-progress packet drains.
        on_true = thread.fetch_mode == "true"
        true_index = thread.true_index
        wp_cursor = thread.wp_cursor
        wp_packet = thread.wp_packet
        if wp_packet is not None:
            wp_pos = thread.wp_pos
            wp_len = len(wp_packet)
        else:
            wp_pos = 0
            wp_len = 0
        while fetched < width:
            if on_true:
                index = true_index - true_base
                if index < num_records:
                    record = true_records[index]
                else:
                    record = supply.get(true_index)
                    num_records = len(true_records)
                static, actual_taken, actual_target, mem_address = record
                next_cursor = None
            else:
                if wp_pos == wp_len:
                    wp_packet, wp_cursor = supply.wrong_packet(wp_cursor)
                    wp_pos = 0
                    wp_len = len(wp_packet)
                # Peek: the packet position only advances once the I-cache
                # admits the instruction (a stalled instruction must be
                # re-fetched when the fill returns).
                static, actual_taken, actual_target, mem_address = wp_packet[wp_pos]
                # Only a packet's last record can be a control instruction;
                # its continuation cursor is the branch's resume point.
                next_cursor = wp_cursor

            address = static.address + mem_offset
            line = address >> line_shift
            if line != current_line:
                tag_set = icache_sets[line & icache_set_mask]
                if tag_set and tag_set[0] == line:
                    icache_stats.accesses += 1
                else:
                    latency, l1_hit = memory.fetch_line(address)
                    if not l1_hit:
                        activity[_ICACHE] += 1
                        activity[_DCACHE2] += 1
                        thread.fetch_stall_until = cycle + latency - 1
                        stats.icache_stall_cycles += 1
                        break
                current_line = line

            on_wrong = not on_true
            if on_wrong:
                wp_pos += 1
            # DynamicInstruction creation, inlined (the hottest allocation
            # in the simulator): only the slots some later stage reads
            # before writing are initialised — see the lazily-populated
            # slot contract in repro/isa/instruction.py.
            instr = _NEW_INSTR(_DYN)
            instr.seq = seq
            instr.static = static
            instr.thread_id = thread_id
            instr.fetch_cycle = cycle
            instr.on_wrong_path = on_wrong
            instr.squashed = False
            seq += 1
            instr.unit_accesses = tally = [0] * 11
            if mem_address:
                instr.mem_address = mem_address + mem_offset
            if on_true:
                instr.true_index = true_index
            tally[_ICACHE] = 1  # the tally is freshly zeroed

            instr.latch_ready = ready_cycle
            append_instr(instr)
            fetched += 1
            if static.is_branch:
                branches += 1
                thread.true_index = true_index
                thread.wp_cursor = wp_cursor
                stop_after = self._fetch_branch(
                    thread, instr, actual_taken, actual_target, next_cursor,
                    on_true,
                )
                if instr.predicted_taken:
                    taken_branches += 1
                if on_wrong:
                    wrong_path += 1
                on_true = thread.fetch_mode == "true"
                true_index = thread.true_index
                wp_cursor = thread.wp_cursor
                # A branch always ends its packet; any redirect re-pointed
                # ``thread.wp_cursor``, so the next packet stamps fresh.
                wp_packet = None
                wp_pos = 0
                wp_len = 0
                # Only a control instruction can stop the fetch group.
                if stop_after or taken_branches >= max_taken:
                    break
            elif on_true:
                true_index += 1
            else:
                wrong_path += 1

        thread.true_index = true_index
        thread.wp_cursor = wp_cursor
        if wp_packet is not None and wp_pos < wp_len:
            thread.wp_packet = wp_packet
            thread.wp_pos = wp_pos
        else:
            thread.wp_packet = None
        kernel.seq = seq
        if fetched:
            activity[_ICACHE] += fetched
            if branches:
                activity[_BPRED] += branches
            stats.fetched += fetched
            thread.fetched += fetched
            if wrong_path:
                stats.fetched_wrong_path += wrong_path
                thread.fetched_wrong_path += wrong_path

    def _fetch_branch(
        self,
        thread,
        instr: DynamicInstruction,
        actual_taken: bool,
        actual_target: int,
        next_cursor,
        on_true: bool,
    ) -> bool:
        """Handle a control instruction at fetch.  Returns True to stop the
        fetch group after this instruction (BTB bubble, oracle stall, or a
        divergence onto the wrong path).  The caller batches the per-branch
        predictor activity into the cycle's array."""
        stats = self.kernel.stats
        instr.actual_taken = actual_taken
        instr.actual_target = actual_target
        instr.unit_accesses[_BPRED] += 1
        stop_after = False
        pc = instr.pc = instr.static.address

        if instr.static.is_cond_branch:
            instr.lowconf = False
            instr.confidence = None
            instr.throttle_token = None
            # Squash recovery reads ``completed`` on latch-resident
            # conditional branches; every other instruction gets its
            # back-end slots at rename/dispatch.
            instr.completed = False
            stats.cond_branches_fetched += 1
            prediction = thread.bpred.predict(pc)
            instr.predicted_taken = prediction.taken
            instr.bpred_snapshot = prediction.snapshot
            instr.mispredicted = prediction.taken != actual_taken
            instr.ras_checkpoint = thread.ras.checkpoint()
            confidence = thread.confidence
            if confidence is not None:
                confidence.set_actual(actual_taken)
                level = confidence.estimate(
                    pc, prediction, thread.bpred,
                    update_state=not instr.on_wrong_path,
                )
                instr.confidence = level
                if level.is_low:
                    instr.lowconf = True
                    thread.lowconf_inflight += 1
                if thread.ctrl_has_fetch_hook:
                    thread.controller.on_branch_fetched(instr, level)
            if prediction.taken and thread.btb.lookup(pc) is None:
                # Taken prediction without a cached target: one-cycle bubble.
                stop_after = True
            self._advance_after_cond(thread, instr, on_true, next_cursor)
            if instr.mispredicted:
                thread.unresolved_mispredicts += 1
                if thread.ctrl_blocks_wp_fetch:
                    stop_after = True
        else:
            # Unconditional control: never mispredicts in this model.
            opcode = instr.static.opcode
            instr.predicted_taken = True
            instr.ras_checkpoint = thread.ras.checkpoint()
            if opcode is _CALL:
                thread.ras.push(pc + 4)
            elif opcode is _RET:
                thread.ras.pop()
            thread.btb.update(pc, 0 if actual_target < 0
                              else thread.program.block(actual_target).address)
            if on_true:
                thread.true_index += 1
            else:
                thread.wp_cursor = next_cursor
        return stop_after

    def _advance_after_cond(
        self,
        thread,
        instr: DynamicInstruction,
        on_true: bool,
        next_cursor,
    ) -> None:
        """Advance the fetch cursor along the *predicted* direction and
        store the recovery cursor for the *actual* direction."""
        block = thread.program.blocks[instr.static.block_id]
        predicted_target = (
            block.taken_target if instr.predicted_taken else block.fall_target
        )

        if on_true:
            resume_index = thread.true_index + 1
            instr.resume_mode = "true"
            instr.resume_true_index = resume_index
            if instr.mispredicted:
                # Diverge onto the wrong path at the predicted target.
                thread.wp_salt += 1
                thread.fetch_mode = "wrong"
                thread.wp_cursor = thread.supply.start_cursor(
                    predicted_target, thread.wp_salt * 8191 + instr.seq
                )
                thread.true_index = resume_index
            else:
                thread.true_index = resume_index
        else:
            instr.resume_mode = "wrong"
            instr.resume_wp_cursor = next_cursor
            if instr.mispredicted:
                # Redirect this wrong path along its own predicted direction.
                _, _, stack, step = next_cursor
                thread.wp_cursor = (predicted_target, 0, stack, step)
            else:
                thread.wp_cursor = next_cursor


# ======================================================================
# snapshot of stages/decode_rename.py
# ======================================================================

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
"""


from repro.isa.registers import REG_ZERO as _REG_ZERO
from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_REGFILE = int(PowerUnit.REGFILE)
_RENAME = int(PowerUnit.RENAME)
_WINDOW = int(PowerUnit.WINDOW)
_LSQ = int(PowerUnit.LSQ)


class ObjectDecodeRenameStage(Stage):
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
            # Skip the stage calls outright on latch-empty cycles.
            thread = threads[0]
            if thread.decode_entries:
                self._rename_thread(thread, cycle, activity, self.width)
            if thread.fetch_entries:
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
        pipe = thread.decode_entries
        if not pipe:
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
        popleft = pipe.popleft
        append_rob = rob_entries.append
        append_ready = iq_ready.append
        stamp = kernel.observer is not None
        renamed = 0
        mem_renamed = 0
        regfile_reads = 0
        while renamed < limit and pipe:
            instr = pipe[0]
            if instr.latch_ready > cycle:
                break
            if instr.squashed:
                popleft()
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
            popleft()
            if stamp:
                instr.rename_cycle = cycle
            # Back-end slots (issue/completion state, physical dest) are
            # first read after dispatch, so they are stamped here rather
            # than on every fetched instruction (wrong-path work squashed
            # in the front-end latches never pays for them).
            instr.issued = False
            instr.completed = False

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
            dest = static.dest
            if dest is not None and dest != _REG_ZERO:
                tag = instr.seq
                rmap[dest] = tag
                instr.phys_dest = tag
                pending_tags.add(tag)
            else:
                instr.phys_dest = -1

            tally = instr.unit_accesses
            tally[_RENAME] += 1
            source_reads = len(static_sources)
            if source_reads:
                regfile_reads += source_reads
                tally[_REGFILE] += source_reads
            tally[_WINDOW] += 1
            if static.is_cond_branch:
                instr.rename_checkpoint = rmap.copy()
            append_rob(instr)
            if is_mem:
                lsq.occupied += 1
                mem_renamed += 1
                tally[_LSQ] += 1

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
        pipe = thread.fetch_entries
        if not pipe:
            return 0
        kernel = self.kernel
        out_append = thread.decode_entries.append
        popleft = pipe.popleft
        ready_cycle = cycle + self.decode_to_rename_latency
        gated = thread.ctrl_blocks_decode
        controller = thread.controller
        stamp = kernel.observer is not None
        moved = 0
        while moved < budget and pipe:
            instr = pipe[0]
            if instr.latch_ready > cycle:
                break
            if instr.squashed:
                popleft()
                continue
            if gated and controller.blocks_decode(cycle, instr):
                # Count a throttled cycle once, whichever thread stalls.
                if self._throttled_cycle != cycle:
                    self._throttled_cycle = cycle
                    kernel.stats.decode_throttled_cycles += 1
                break
            popleft()
            if stamp:
                instr.decode_cycle = cycle
            instr.latch_ready = ready_cycle
            out_append(instr)
            moved += 1
        if moved:
            kernel.stats.decoded += moved
        return moved


# ======================================================================
# snapshot of stages/select_issue.py
# ======================================================================

"""Select/issue: pick ready instructions and start them executing.

Refreshes the functional-unit pool, then walks the threads in the cycle's
rotation order letting each thread's issue queue select ready
instructions oldest-first (honouring slot capacities, MSHR availability
and the controller's no-select bit), performs load D-cache accesses and
schedules each issued instruction's writeback into the completion latch.
"""


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


class ObjectSelectIssueStage(Stage):
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
        # pool refreshes its availability list in place).
        self.memory = kernel.memory
        self.buckets = kernel.completions.buckets
        self.try_claim_code = kernel.fu_pool.try_claim_code
        self.code_available = kernel.fu_pool._code_available

    def tick(self, cycle: int, activity) -> None:
        kernel = self.kernel
        if kernel.iq_count == 0:
            # No dispatched instruction anywhere, so nothing can be ready
            # and no slot can be claimed.  The FU-pool refresh is deferred
            # (``new_cycle`` is only observable through claims, and the
            # MSHR ledger trims lazily against the then-current cycle).
            return
        fu_pool = kernel.fu_pool
        fu_pool.new_cycle(cycle)
        threads = kernel.threads
        count = len(threads)
        budget = self.width
        for offset in range(count):
            if budget <= 0:
                break
            thread = threads[(cycle + offset) % count]
            iq = thread.iq
            ready = iq.ready_list
            if not ready:
                continue
            # IssueQueue.select fused with the issue bookkeeping: walk the
            # ready instructions oldest first, claim slots, and start
            # execution in one pass (identical pick order and side
            # effects; survivors stay ready for the next cycle).  The sort
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
            buckets = self.buckets
            extra_exec = self.extra_exec_latency
            stamp = kernel.observer is not None
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
                if stamp:
                    instr.issue_cycle = cycle
                tally = instr.unit_accesses
                tally[_WINDOW] += 1
                tally[_ALU] += 1
                latency = static.latency + extra_exec
                if static.is_load:
                    mem_latency, l1_hit = memory.load_data(instr.mem_address)
                    dcache_accesses += 1
                    tally[_DCACHE] += 1
                    if not l1_hit:
                        dcache2_accesses += 1
                        tally[_DCACHE2] += 1
                        # The miss occupies an MSHR until the fill returns;
                        # squashing the load does not recall the fill.
                        if mshr_holds is None:
                            mshr_holds = [cycle + mem_latency]
                        else:
                            mshr_holds.append(cycle + mem_latency)
                    latency += mem_latency
                    lsq_accesses += 1
                    tally[_LSQ] += 1
                elif static.is_store:
                    lsq_accesses += 1
                    tally[_LSQ] += 1
                if instr.on_wrong_path:
                    wrong_path += 1
                complete = cycle + latency
                bucket = buckets.get(complete)
                if bucket is None:
                    buckets[complete] = [instr]
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


# ======================================================================
# snapshot of stages/execute_writeback.py
# ======================================================================

"""Execute/writeback: result broadcast and branch resolution.

Issued instructions sit in the kernel's
:class:`~repro.pipeline.stages.latch.CompletionLatch` until their
completion cycle arrives; this stage drains the cycle's bin in fetch
(sequence) order, marks results complete, broadcasts destination tags into
the owning thread's issue-queue wakeup network, and resolves conditional
branches — notifying the thread's speculation controller and invoking the
commit stage's recovery path for mispredictions.
"""


from operator import attrgetter

from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_WINDOW = int(PowerUnit.WINDOW)
_RESULTBUS = int(PowerUnit.RESULTBUS)

_BY_SEQ = attrgetter("seq")


class ObjectExecuteWritebackStage(Stage):
    """Drain the completion latch; wake dependents; resolve branches."""

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

    def tick(self, cycle: int, activity) -> None:
        events = self.buckets.pop(cycle, None)
        if not events:
            return
        if len(events) > 1:
            events.sort(key=_BY_SEQ)
        threads = self.kernel.threads
        recover = self.recovery.recover
        if len(threads) == 1:
            # Single-thread fast path: one set of per-thread structures for
            # the whole event bin, and IssueQueue.wakeup inlined.
            thread = threads[0]
            pending_tags = thread.renamer.pending_tags
            iq = thread.iq
            waiters = iq.waiters
            stamp = self.kernel.observer is not None
            broadcasts = 0
            wakeups = 0
            for instr in events:
                if instr.squashed:
                    continue
                instr.completed = True
                if stamp:
                    instr.complete_cycle = cycle
                tag = instr.phys_dest
                if tag >= 0:
                    pending_tags.discard(tag)  # mark_completed
                    broadcasts += 1
                    instr.unit_accesses[_RESULTBUS] += 1
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
                        iq.wakeup_broadcasts += 1
                        if woken:
                            wakeups += 1
                            instr.unit_accesses[_WINDOW] += 1
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
        stamp = self.kernel.observer is not None
        for instr in events:
            if instr.squashed:
                continue
            thread = threads[instr.thread_id]
            instr.completed = True
            if stamp:
                instr.complete_cycle = cycle
            tag = instr.phys_dest
            if tag >= 0:
                # RegisterRenamer.mark_completed, inlined.
                thread.renamer.pending_tags.discard(tag)
                activity[_RESULTBUS] += 1
                instr.unit_accesses[_RESULTBUS] += 1
                woken = thread.iq.wakeup(tag)
                if woken:
                    activity[_WINDOW] += 1
                    instr.unit_accesses[_WINDOW] += 1
            if instr.static.is_cond_branch:
                if instr.lowconf:
                    instr.lowconf = False
                    thread.lowconf_inflight -= 1
                if thread.ctrl_has_resolve_hook:
                    thread.controller.on_branch_resolved(instr)
                if instr.mispredicted:
                    recover(thread, instr, cycle)


# ======================================================================
# snapshot of stages/commit.py
# ======================================================================

"""Commit and recovery: the in-order retirement end of the kernel.

Commit retires completed instructions from each thread's ROB head in
program order up to the machine's commit width (threads take turns in a
cycle-rotated order so no thread systematically eats the width first),
performing the architectural side effects: store D-cache access, LSQ
release, predictor/estimator/BTB training for conditional branches, and
power crediting of the retired instruction's access tally.

Recovery also lives here: when writeback resolves a mispredicted branch,
:meth:`ObjectCommitRecoverStage.recover` squashes the thread's younger
instructions (ROB, IQ, both front-end latches), repairs the rename map,
predictor history and RAS from the branch's checkpoints, and re-points the
thread's fetch cursor at the branch's recorded resume position.
"""


from typing import List

from repro.errors import SimulationError
from repro.isa.instruction import DynamicInstruction
from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_BPRED = int(PowerUnit.BPRED)
_REGFILE = int(PowerUnit.REGFILE)
_DCACHE = int(PowerUnit.DCACHE)
_DCACHE2 = int(PowerUnit.DCACHE2)

# Commit distance between supply prunes of the consumed true-path stream.
_PRUNE_INTERVAL = 8192

# The two tally shapes wrong-path work squashed in the front-end latches
# almost always carries: one I-cache access (plain instructions), or one
# I-cache plus one predictor access (conditional branches).  A C-level
# list comparison routes them past the 11-unit attribution loop.
_TALLY_ICACHE_ONLY = [
    1 if unit == int(PowerUnit.ICACHE) else 0 for unit in range(11)
]
_TALLY_ICACHE_BPRED = [
    1 if unit in (int(PowerUnit.ICACHE), _BPRED) else 0 for unit in range(11)
]
_ICACHE = int(PowerUnit.ICACHE)


class ObjectCommitRecoverStage(Stage):
    """Retire completed instructions; repair state after mispredictions."""

    name = "commit"

    # Latch surfaces this stage may touch (checked by ``repro check``,
    # rule CON001).  Commit owns squash/repair, so recovery's latch
    # flushes and renamer restore are charged here even when writeback
    # triggers them through ``recover``.
    CONTRACT = {
        "reads": (),
        "writes": (
            "rob", "iq", "lsq", "renamer", "fetch_latch", "decode_latch",
        ),
    }

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self.width = kernel.config.commit_width
        self.redirect_penalty = kernel.config.redirect_penalty

    def tick(self, cycle: int, activity) -> None:
        threads = self.kernel.threads
        count = len(threads)
        budget = self.width
        if count == 1:
            thread = threads[0]
            entries = thread.rob_entries
            # Skip the call (and all its hoisting) on stall cycles.
            if entries and entries[0].completed:
                self._commit_thread(thread, cycle, activity, budget)
            return
        for offset in range(count):
            if budget <= 0:
                break
            thread = threads[(cycle + offset) % count]
            budget -= self._commit_thread(thread, cycle, activity, budget)

    def _commit_thread(self, thread, cycle: int, activity, budget: int) -> int:
        entries = thread.rob_entries
        # Nothing committable: skip all hoisting (most stall cycles).
        if not entries or not entries[0].completed:
            return 0
        kernel = self.kernel
        power = kernel.power
        memory = kernel.memory
        observer = kernel.observer
        # Single-thread machines never attribute energy per thread, so the
        # commit credit reduces to the clock-residency sum — inlined here
        # (same arithmetic as PowerModel.credit_committed).
        attribute = power.attribute_threads
        residency = 0
        lsq = thread.lsq
        committed = 0
        freed_lsq = 0
        regfile_writes = 0
        dcache_accesses = 0
        dcache2_accesses = 0
        branch_commits = 0
        while committed < budget:
            if not entries:
                break
            head = entries[0]
            if not head.completed:
                break
            entries.popleft()
            if observer is not None:
                head.commit_cycle = cycle
            tally = head.unit_accesses
            if head.phys_dest >= 0:
                regfile_writes += 1
                tally[_REGFILE] += 1
            static = head.static
            if static.is_store:
                _, l1_hit = memory.store_data(head.mem_address)
                dcache_accesses += 1
                tally[_DCACHE] += 1
                if not l1_hit:
                    dcache2_accesses += 1
                    tally[_DCACHE2] += 1
                lsq.release()
                freed_lsq += 1
            elif static.is_load:
                lsq.release()
                freed_lsq += 1
            elif static.is_cond_branch:
                branch_commits += 1
                self._commit_branch(thread, head)
            if attribute:
                power.credit_committed(head, cycle)
            else:
                fetch_cycle = head.fetch_cycle
                if fetch_cycle >= 0 and cycle > fetch_cycle:
                    residency += cycle - fetch_cycle
            if observer is not None:
                observer.on_commit(head, cycle)
            committed += 1
            # Only true-path instructions commit, and every one carries
            # its stream index.
            thread.last_committed_true_index = head.true_index
        if residency:
            power.committed_instr_cycles += residency
        if committed:
            if regfile_writes:
                activity[_REGFILE] += regfile_writes
            if dcache_accesses:
                activity[_DCACHE] += dcache_accesses
                if dcache2_accesses:
                    activity[_DCACHE2] += dcache2_accesses
            if branch_commits:
                activity[_BPRED] += branch_commits
            kernel.stats.committed += committed
            kernel.rob_count -= committed
            kernel.lsq_count -= freed_lsq
            thread.committed += committed
            thread.commits_since_prune += committed
            if thread.commits_since_prune >= _PRUNE_INTERVAL:
                thread.supply.prune_before(thread.last_committed_true_index)
                thread.commits_since_prune = 0
        return committed

    def _commit_branch(self, thread, instr: DynamicInstruction) -> None:
        """Retire one conditional branch (training + bookkeeping).  The
        caller batches the per-branch predictor activity."""
        stats = self.kernel.stats
        stats.cond_branches_committed += 1
        thread.cond_branches_committed += 1
        correct = not instr.mispredicted
        if not correct:
            stats.mispredictions_committed += 1
            thread.mispredictions_committed += 1
        thread.bpred.train(instr.pc, instr.actual_taken, instr.bpred_snapshot)
        instr.unit_accesses[_BPRED] += 1
        if thread.confidence is not None:
            thread.confidence.train(
                instr.pc, correct, instr.bpred_snapshot, taken=instr.actual_taken
            )
            if instr.confidence is not None:
                stats.confidence.record(instr.confidence, correct)
        if instr.actual_taken and instr.actual_target >= 0:
            target_address = thread.program.block(instr.actual_target).address
            thread.btb.update(instr.pc, target_address)

    # ------------------------------------------------------------------
    # Recovery (invoked by the writeback stage at branch resolution)
    # ------------------------------------------------------------------

    def recover(self, thread, branch: DynamicInstruction, cycle: int) -> None:
        """Squash the thread's younger instructions and redirect its fetch."""
        stats = self.kernel.stats
        stats.squashes += 1
        # Remove every younger instruction of this thread, youngest first.
        backend = thread.rob.squash_younger(branch.seq)
        if backend:
            self.kernel.rob_count -= len(backend)
            self._squash_many(thread, backend, cycle, in_backend=True)
        thread.iq.squash_younger(branch.seq)
        if thread.fetch_latch.entries:
            self._squash_many(
                thread, thread.fetch_latch.entries, cycle, in_backend=False
            )
            thread.fetch_latch.clear()
        if thread.decode_latch.entries:
            self._squash_many(
                thread, thread.decode_latch.entries, cycle, in_backend=False
            )
            thread.decode_latch.clear()

        # Architectural repair.
        thread.renamer.restore(branch.rename_checkpoint)
        thread.bpred.restore(branch.bpred_snapshot, branch.actual_taken)
        thread.ras.restore(branch.ras_checkpoint)

        # Redirect fetch down the branch's actual path.  Re-pointing the
        # wrong-path cursor invalidates any in-progress supply packet.
        if branch.resume_mode == "true":
            thread.fetch_mode = "true"
            thread.true_index = branch.resume_true_index
            thread.wp_cursor = None
        else:
            thread.fetch_mode = "wrong"
            thread.wp_cursor = branch.resume_wp_cursor
        thread.wp_packet = None
        thread.fetch_stall_until = cycle + self.redirect_penalty
        thread.unresolved_mispredicts -= 1
        if thread.unresolved_mispredicts < 0:
            raise SimulationError("unresolved misprediction count underflow")

    def _squash_many(self, thread, instrs, cycle: int, in_backend: bool) -> None:
        """Squash a batch of one thread's instructions (recovery hot loop).

        Mirrors, per instruction: the squash flag, the power model's
        wasted-energy credit (``PowerModel.credit_squashed`` — inlined for
        the common no-per-thread-ledger case, squashes being the
        second-hottest event in misprediction-heavy runs), observer and
        controller notifications, and — for back-end residents — rename/
        IQ/LSQ deallocation.
        """
        kernel = self.kernel
        power = kernel.power
        observer = kernel.observer
        attribute = power.attribute_threads
        energy_per_access = power._energy_per_access
        wasted = power.wasted_energy
        squashed_accesses = power.squashed_accesses
        wasted_cycles = 0
        count = 0
        iq = thread.iq
        lsq = thread.lsq
        pending_tags = thread.renamer.pending_tags
        waiters = iq.waiters
        squash_hook = thread.ctrl_has_squash_hook
        freed_iq = 0
        freed_lsq = 0
        # Two loop variants keyed on the (per-call constant) residency:
        # front-end latch squashes — the bulk of every recovery — skip
        # the back-end bookkeeping branchlessly and route their two
        # dominant tally shapes (one I-cache access; I-cache + predictor
        # for conditional branches) past the 11-unit attribution loop
        # (``accesses * energy`` with ``accesses == 1`` is exactly
        # ``energy``, so the shortcut accumulates bit-identical floats).
        if not in_backend:
            for instr in instrs:
                instr.squashed = True
                count += 1
                if attribute:
                    power.credit_squashed(instr, cycle)
                else:
                    tally = instr.unit_accesses
                    if tally is not None:
                        if tally == _TALLY_ICACHE_ONLY:
                            wasted[_ICACHE] += energy_per_access[_ICACHE]
                            squashed_accesses[_ICACHE] += 1
                        elif tally == _TALLY_ICACHE_BPRED:
                            wasted[_ICACHE] += energy_per_access[_ICACHE]
                            squashed_accesses[_ICACHE] += 1
                            wasted[_BPRED] += energy_per_access[_BPRED]
                            squashed_accesses[_BPRED] += 1
                        else:
                            for unit, accesses in enumerate(tally):
                                if accesses:
                                    wasted[unit] += accesses * energy_per_access[unit]
                                    squashed_accesses[unit] += accesses
                    fetch_cycle = instr.fetch_cycle
                    if cycle > fetch_cycle >= 0:
                        wasted_cycles += cycle - fetch_cycle
                if observer is not None:
                    observer.on_squash(instr, cycle)
                if instr.static.is_cond_branch:
                    if instr.lowconf:
                        instr.lowconf = False
                        thread.lowconf_inflight -= 1
                    if squash_hook:
                        thread.controller.on_branch_squashed(instr)
                    # A mispredicted branch that already resolved was
                    # discounted at resolution; only still-outstanding
                    # ones are discounted here.
                    if instr.mispredicted and not instr.completed:
                        thread.unresolved_mispredicts -= 1
        else:
            for instr in instrs:
                instr.squashed = True
                count += 1
                if attribute:
                    power.credit_squashed(instr, cycle)
                else:
                    tally = instr.unit_accesses
                    if tally is not None:
                        for unit, accesses in enumerate(tally):
                            if accesses:
                                wasted[unit] += accesses * energy_per_access[unit]
                                squashed_accesses[unit] += accesses
                    fetch_cycle = instr.fetch_cycle
                    if cycle > fetch_cycle >= 0:
                        wasted_cycles += cycle - fetch_cycle
                if observer is not None:
                    observer.on_squash(instr, cycle)
                static = instr.static
                if static.is_cond_branch:
                    if instr.lowconf:
                        instr.lowconf = False
                        thread.lowconf_inflight -= 1
                    if squash_hook:
                        thread.controller.on_branch_squashed(instr)
                    if instr.mispredicted and not instr.completed:
                        thread.unresolved_mispredicts -= 1
                tag = instr.phys_dest
                if tag >= 0:
                    pending_tags.discard(tag)  # RegisterRenamer.forget
                    waiters.pop(tag, None)  # IssueQueue.forget_tag
                if not instr.issued:
                    freed_iq += 1
                if static.is_mem:
                    freed_lsq += 1
        kernel.stats.squashed += count
        thread.squashed += count
        if wasted_cycles:
            power.wasted_instr_cycles += wasted_cycles
        if freed_iq:
            iq.count -= freed_iq
            kernel.iq_count -= freed_iq
            if iq.count < 0:
                raise SimulationError("issue queue count went negative")
        if freed_lsq:
            lsq.occupied -= freed_lsq
            kernel.lsq_count -= freed_lsq
            if lsq.occupied < 0:
                raise SimulationError("release from an empty LSQ")


# ======================================================================
# snapshot of stages/scheduler.py
# ======================================================================

"""The cycle scheduler: drives the stage components through one cycle.

Stages run in reverse pipeline order — commit, writeback, select/issue,
rename+decode, fetch — so that results written back this cycle are
visible to commit next cycle, issue slots freed by writeback are not
reused in the same cycle, and latch entries move at most one stage per
cycle.  After the last stage the scheduler closes the cycle: the per-unit
activity array is integrated by the power model (clock-tree power driven
by ROB occupancy from the kernel's incremental counter — no per-cycle
rescan of the threads), and the cycle counter advances.

The scheduler holds the stage components as plain attributes, so tests
and future scenarios can wrap or replace a single stage without touching
the kernel.
"""


from repro.pipeline.sanitizer import check_cycle_end, check_invariants
from repro.power.units import NUM_UNITS


class ObjectCycleScheduler:
    """Owns the five stage components and advances them one cycle at a time."""

    __slots__ = (
        "kernel", "total_rob_size",
        "commit", "writeback", "issue", "decode_rename", "fetch",
        "stages",
    )

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        # Constant once the kernel's threads are final (the kernel builds
        # its scheduler last).
        self.total_rob_size = kernel.total_rob_size
        self.commit = ObjectCommitRecoverStage(kernel)
        self.writeback = ObjectExecuteWritebackStage(kernel, recovery=self.commit)
        self.issue = ObjectSelectIssueStage(kernel)
        self.decode_rename = ObjectDecodeRenameStage(kernel)
        self.fetch = ObjectFetchStage(kernel)
        # Reverse pipeline order, the order ``step`` runs them in.  The
        # stage objects stay plain attributes and ``step`` dispatches
        # through them each cycle, so tests and scenarios may wrap or
        # replace a single stage (or its ``tick``) at any time.
        self.stages = (
            self.commit,
            self.writeback,
            self.issue,
            self.decode_rename,
            self.fetch,
        )

    def step(self) -> None:
        """Advance the machine by one cycle."""
        kernel = self.kernel
        cycle = kernel.cycle
        activity = [0] * NUM_UNITS
        self.commit.tick(cycle, activity)
        self.writeback.tick(cycle, activity)
        self.issue.tick(cycle, activity)
        self.decode_rename.tick(cycle, activity)
        self.fetch.tick(cycle, activity)
        power = kernel.power
        in_flight = kernel.rob_count
        power.end_cycle(activity, in_flight / self.total_rob_size)
        power.total_instr_cycles += in_flight
        kernel.stats.cycles += 1
        kernel.cycle = cycle + 1

    def step_checked(self) -> None:
        """``step`` with optional invariant checks after every stage tick
        (``config.sanitize``) and probe-bus sampling (``config.telemetry``).

        The kernel binds its ``_step`` to this method instead of ``step``
        when either mode is set (see ``Processor._finish_threads``) — the
        plain ``step`` carries no mode branch, so runs without the modes
        pay nothing.  The stage sequence and the cycle close mirror
        ``step`` exactly; a checked run is bit-identical or raises
        :class:`~repro.errors.SanitizerError`.
        """
        kernel = self.kernel
        probes = kernel.probes
        sanitize = kernel.config.sanitize
        cycle = kernel.cycle
        if probes is not None:
            probes.begin_cycle(kernel, cycle)
        activity = [0] * NUM_UNITS
        for stage in (
            self.commit, self.writeback, self.issue, self.decode_rename, self.fetch,
        ):
            stage.tick(cycle, activity)
            if sanitize:
                check_invariants(kernel, stage.name, cycle)
        power = kernel.power
        in_flight = kernel.rob_count
        power.end_cycle(activity, in_flight / self.total_rob_size)
        power.total_instr_cycles += in_flight
        kernel.stats.cycles += 1
        kernel.cycle = cycle + 1
        if probes is not None:
            probes.end_cycle(kernel)
        if sanitize:
            check_cycle_end(kernel, cycle)
