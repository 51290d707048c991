"""Fetch: walk the predicted path and fill the fetch latch.

The front-end fetches along its *predictions*: the thread's
:class:`~repro.frontend.supply.CompiledSupply` serves true-path records
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
recovery works on the supply's ``(block, index, stack, step)`` cursors;
anything that re-points ``thread.wp_cursor`` outside this loop clears the
packet.

On an SMT core the single fetch port is arbitrated by the kernel's fetch
policy; the single-thread machine skips the policy entirely.
"""

from __future__ import annotations

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


class FetchStage(Stage):
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
        fetch_latch = thread.fetch_latch
        decode_latch = thread.decode_latch
        capacity = (
            thread.fetch_buffer
            - (len(fetch_latch.instrs) - fetch_latch.head)
            - (len(decode_latch.instrs) - decode_latch.head)
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
        append_instr = fetch_latch.instrs.append
        append_stamp = fetch_latch.stamps.append

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
            if mem_address:
                instr.mem_address = mem_address + mem_offset
            if on_true:
                instr.true_index = true_index

            append_instr(instr)
            append_stamp(ready_cycle)
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
        instr.actual_taken = actual_taken
        instr.actual_target = actual_target
        stop_after = False
        pc = instr.pc = instr.static.address

        if instr.static.is_cond_branch:
            instr.lowconf = False
            instr.throttle_token = None
            prediction = thread.bpred.predict(pc)
            instr.predicted_taken = prediction.taken
            instr.bpred_snapshot = prediction.snapshot
            instr.mispredicted = prediction.taken != actual_taken
            instr.ras_checkpoint = thread.ras.checkpoint()
            confidence = thread.confidence
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
