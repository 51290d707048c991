"""Commit and recovery: the in-order retirement end of the kernel.

Commit retires completed instructions from each thread's ROB head in
program order up to the machine's commit width (threads take turns in a
cycle-rotated order so no thread systematically eats the width first),
performing the architectural side effects: store D-cache access, LSQ
release, predictor/estimator/BTB training for conditional branches, and
power crediting of the retired instruction.

The kernel stores no per-instruction access tally; the two cold
crediting paths that need one (per-thread energy attribution, squash
accounting) reconstruct it on demand with
:func:`repro.pipeline.arrays.materialize_tally`, and front-end latch
squashes — whose tally is always one I-cache access plus a predictor
access for branches — skip even that and credit the two units directly.

Recovery also lives here: when writeback resolves a mispredicted branch,
:meth:`CommitRecoverStage.recover` squashes the thread's younger
instructions (ROB, IQ, both front-end latch columns), repairs the rename
map, predictor history and RAS from the branch's checkpoints, and
re-points the thread's fetch cursor at the branch's recorded resume
position.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.instruction import DynamicInstruction
from repro.pipeline.arrays import materialize_tally
from repro.pipeline.stages.base import Stage
from repro.power.units import PowerUnit

_ICACHE = int(PowerUnit.ICACHE)
_BPRED = int(PowerUnit.BPRED)
_REGFILE = int(PowerUnit.REGFILE)
_DCACHE = int(PowerUnit.DCACHE)
_DCACHE2 = int(PowerUnit.DCACHE2)

# Commit distance between supply prunes of the consumed true-path stream.
_PRUNE_INTERVAL = 8192


class CommitRecoverStage(Stage):
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
            if head.phys_dest >= 0:
                regfile_writes += 1
            static = head.static
            store_miss = False
            if static.is_store:
                _, l1_hit = memory.store_data(head.mem_address)
                dcache_accesses += 1
                if not l1_hit:
                    dcache2_accesses += 1
                    store_miss = True
                lsq.release()
                freed_lsq += 1
            elif static.is_load:
                lsq.release()
                freed_lsq += 1
            elif static.is_cond_branch:
                branch_commits += 1
                self._commit_branch(thread, head)
            if attribute:
                power.credit_committed(
                    head, cycle, materialize_tally(head, True, True, store_miss)
                )
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
        # The latch columns: squash the live window (``head`` onward) and
        # drop the columns wholesale.
        fetch_latch = thread.fetch_latch
        if fetch_latch.head < len(fetch_latch.instrs):
            self._squash_many(
                thread,
                fetch_latch.instrs[fetch_latch.head:],
                cycle,
                in_backend=False,
            )
            fetch_latch.clear()
        decode_latch = thread.decode_latch
        if decode_latch.head < len(decode_latch.instrs):
            self._squash_many(
                thread,
                decode_latch.instrs[decode_latch.head:],
                cycle,
                in_backend=False,
            )
            decode_latch.clear()

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
        # front-end latch squashes — the bulk of every recovery — carry
        # exactly one I-cache access plus one predictor access for
        # control instructions, so the credit is two direct accumulates
        # with no tally at all (``accesses * energy`` with
        # ``accesses == 1`` is exactly ``energy``, so the shortcut
        # accumulates bit-identical floats); back-end residents
        # materialize their tally and walk it ascending-unit, the
        # attribution order the equivalence goldens fix.
        if not in_backend:
            icache_energy = energy_per_access[_ICACHE]
            bpred_energy = energy_per_access[_BPRED]
            for instr in instrs:
                instr.squashed = True
                count += 1
                if attribute:
                    power.credit_squashed(
                        instr, cycle, materialize_tally(instr, False)
                    )
                else:
                    wasted[_ICACHE] += icache_energy
                    squashed_accesses[_ICACHE] += 1
                    if instr.static.is_branch:
                        wasted[_BPRED] += bpred_energy
                        squashed_accesses[_BPRED] += 1
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
                    # A mispredicted branch still in a front-end latch can
                    # never have resolved; it is always discounted here.
                    if instr.mispredicted:
                        thread.unresolved_mispredicts -= 1
        else:
            for instr in instrs:
                instr.squashed = True
                count += 1
                if attribute:
                    power.credit_squashed(
                        instr, cycle, materialize_tally(instr, True)
                    )
                else:
                    tally = materialize_tally(instr, True)
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
