"""The cycle scheduler: drives the stage components through one cycle.

Stages run in reverse pipeline order — commit, writeback, select/issue,
rename+decode, fetch — so that results written back this cycle are
visible to commit next cycle, issue slots freed by writeback are not
reused in the same cycle, and latch entries move at most one stage per
cycle.  After the last stage the scheduler closes the cycle: the per-unit
activity array is integrated by the power model (clock-tree power driven
by ROB occupancy from the kernel's incremental counter — no per-cycle
rescan of the threads), and the cycle counter advances.

**Cycle-skip fast-forward (the next-event engine).**  When the whole
machine is provably inert, every stage tick is a no-op and the cycle
close is the power model's idle accumulation.  Inert means *empty*
(nothing in flight that can move) or *blocked*: latch heads in transit,
rename stalled on a full ROB/IQ/LSQ or an SMT shared cap, ready loads
waiting for an MSHR, fetch idle behind a full buffer, a stall or a
closed gate — with no completed ROB head and nothing due out of the
completion wheel this cycle.  The scheduler then jumps to the earliest
*event* that could make any stage do work again, and closes the skipped
stretch in one batch.  Four event sources compose:

* **wheel events** — the next non-empty completion-ring slot (a scan
  bounded by the wheel horizon identifies its cycle exactly; far-bucket
  events clamp from above);
* **latch-transit events** — the stamp of an in-transit latch head;
* **MSHR releases** — the earliest fill release of an MSHR-blocked
  machine;
* **fetch reopen events** — per thread with room in its fetch buffer,
  the first cycle its fetch could
  run: the end of a redirect/I-cache stall, the controller's next
  fetch-gate slot (``SpeculationController.next_active_cycle``, an O(1)
  wheel probe for the bandwidth-level throttles, "never without a hook"
  for pipeline gating and the oracle's wrong-path wait), and — on an SMT
  core under the confidence-gating policy — the thread's bandwidth-level
  duty cycle.

The batch close is bit-identical to stepping: the power model closes
each idle accumulator in closed form (``PowerModel.end_idle_cycles``),
and the stall/throttle counters and controller side effects advance in
closed form through ``SpeculationController.close_gated_window`` — on
single-thread *and* SMT cores, gated or not.
``ProcessorConfig.cycle_skip`` (REPRO_CYCLE_SKIP=0)
disables the engine, leaving the stepped path as the no-skip reference
that the equivalence goldens and the cost ledger's skip-off cell run;
results are identical either way.

**Two steppers.**  ``step`` is the plain cycle and carries no mode
branch; ``step_checked`` is the same cycle with three optional hooks:
the sanitizer's invariant checks, the telemetry probe bus's sampling,
and the pipetrace recorder (``repro.tracing.PipelineTracer``), which
snapshots the kernel before each stage tick and diffs it after.
``Processor._finish_threads`` binds one stepper once, at construction,
and ``Processor.attach_tracer`` rebinds the checked one; the stages
themselves know nothing of any hook.  Both steppers enter through the
same fast-forward gate (``_fast_forward``).

The scheduler holds the stage components as plain attributes, so tests
and future scenarios can wrap or replace a single stage without touching
the kernel.
"""

from __future__ import annotations

from repro.core.levels import ACTIVE_WHEEL_MASKS, NEVER_ACTIVE
from repro.isa.opcodes import FU_MEM_READ as _FU_MEM_READ
from repro.pipeline.sanitizer import check_cycle_end, check_invariants
from repro.pipeline.stages.commit import CommitRecoverStage
from repro.pipeline.stages.decode_rename import DecodeRenameStage
from repro.pipeline.stages.execute_writeback import ExecuteWritebackStage
from repro.pipeline.stages.fetch import FetchStage
from repro.pipeline.stages.select_issue import SelectIssueStage
from repro.power.units import NUM_UNITS

_POPCOUNT = tuple(bin(value).count("1") for value in range(16))


def _wheel_count(mask: int, start: int, count: int) -> int:
    """Active cycles among ``count`` cycles from ``start`` under a 4-cycle
    wheel ``mask``: whole periods contribute the mask's popcount, the
    remainder is a phase probe per cycle."""
    if mask == 0 or count <= 0:
        return 0
    if mask == 0b1111:
        return count
    full, rem = divmod(count, 4)
    total = full * _POPCOUNT[mask]
    for offset in range(rem):
        if (mask >> ((start + offset) & 3)) & 1:
            total += 1
    return total


class CycleScheduler:
    """Owns the five stage components and advances them one cycle at a time."""

    __slots__ = (
        "kernel", "total_rob_size",
        "commit", "writeback", "issue", "decode_rename", "fetch",
        "stages",
        "_solo", "_solo_gates", "_solo_oracle", "_smt_skip",
        "_threads", "_conf_policy", "_ring", "_mask", "_far",
    )

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        # Constant once the kernel's threads are final (the kernel builds
        # its scheduler last).
        self.total_rob_size = kernel.total_rob_size
        self.commit = CommitRecoverStage(kernel)
        self.writeback = ExecuteWritebackStage(kernel, recovery=self.commit)
        self.issue = SelectIssueStage(kernel)
        self.decode_rename = DecodeRenameStage(kernel)
        self.fetch = FetchStage(kernel)
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
        # Fast-forward state.  The entry gates below are the per-cycle
        # hot path, so the solo thread and its controller capability
        # flags are cached as slots.
        completions = kernel.completions
        self._ring = completions.buckets
        self._mask = completions.mask
        self._far = completions.far_buckets
        threads = kernel.threads
        self._threads = threads
        enabled = kernel.config.cycle_skip
        self._solo = None
        self._smt_skip = False
        if len(threads) == 1:
            solo = threads[0]
            # A controller that both gated fetch and blocked wrong-path
            # fetch would make a skipped window's throttled-cycle count
            # depend on the gate's phase during the wrong-path wait.  No
            # shipped controller does both; such a thread just steps.
            if enabled and not (solo.ctrl_gates_fetch and solo.ctrl_blocks_wp_fetch):
                self._solo = solo
        else:
            self._smt_skip = enabled
        solo = self._solo
        self._solo_gates = solo is not None and solo.ctrl_gates_fetch
        self._solo_oracle = solo is not None and solo.ctrl_blocks_wp_fetch
        # The confidence-gating SMT policy adds a per-thread duty-cycle
        # gate (and a per-thread gated-cycle counter) on top of the
        # controllers; every other policy is a pure function of frozen
        # thread state and the cycle number, so arbitration is invariant
        # across a skipped window by construction.
        # Imported here, not at module top: repro.smt pulls the processor
        # module back in, and the scheduler is imported while that module
        # is still initialising.  Construction happens long after.
        from repro.smt.policies import ConfidenceGatingPolicy

        # A 1-thread core's fetch stage bypasses the policy altogether.
        policy = kernel.fetch_policy
        self._conf_policy = (
            policy
            if len(threads) > 1 and isinstance(policy, ConfidenceGatingPolicy)
            else None
        )

    # ------------------------------------------------------------------
    # Cycle-skip fast-forward
    # ------------------------------------------------------------------

    def _next_fetch_cycle(self, thread, cycle: int) -> int:
        """First cycle ``>= cycle`` the thread's fetch could do work,
        with all gate state frozen (guaranteed by window quiescence).

        Mirrors the fetch eligibility checks in order: redirect/I-cache
        stall, the controller's fetch gate, and — under the confidence-
        gating SMT policy — the thread's bandwidth-level duty cycle.  An
        oracle-parked thread (wrong-path wait) reopens only on a wheel
        event, never by the clock alone.
        """
        if thread.ctrl_blocks_wp_fetch and thread.fetch_mode == "wrong":
            return NEVER_ACTIVE
        candidate = thread.fetch_stall_until
        if candidate < cycle:
            candidate = cycle
        gates = thread.ctrl_gates_fetch
        controller = thread.controller
        policy = self._conf_policy
        if policy is None:
            if gates:
                return controller.next_active_cycle(candidate)
            return candidate
        level_mask = ACTIVE_WHEEL_MASKS[policy.level_for(thread.lowconf_inflight)]
        # Both gates are (at most) 4-cycle wheels, so a common active
        # phase, if one exists, is found within one period from any
        # starting point; 8 probes cover a checked candidate per pair.
        for _ in range(8):
            if gates:
                at = controller.next_active_cycle(candidate)
                if at >= NEVER_ACTIVE:
                    return NEVER_ACTIVE
                if at != candidate:
                    candidate = at
                    continue
            if (level_mask >> (candidate & 3)) & 1:
                return candidate
            candidate += 1
        return NEVER_ACTIVE

    def _try_skip(self, cycle: int) -> int:
        """Plan and close one fast-forward window; 0 when any stage might
        do work before the next event.

        The quiescence guards prove every stage a no-op on every thread,
        for an empty machine and for a *blocked* one alike:

        * writeback — no wheel event at the current cycle (the entry
          gate tests the ring slot, this method the far buckets);
        * commit — no completed ROB head;
        * decode — the fetch-latch head (if any) is in transit: its stamp
          lies in the future and becomes an event.  A due head always
          steps (decode moves it, or a decode throttle counts a cycle);
        * rename — the decode-latch head (if any) is in transit, or it is
          due but structurally blocked: the thread's ROB or IQ partition
          is full, its LSQ is full and the head is a memory op, or an SMT
          shared cap is reached.  Only a wheel event frees these;
        * select/issue — no ready instruction, or every ready instruction
          is a live load and every MSHR is held past this cycle
          (*MSHR-blocked*): the window then ends at the earliest fill
          release.  A ready list still to be sorted steps once, so the
          stage's sort is never deferred across a window.  Ready
          instructions a no-select controller blocks step, since the
          stage counts each blocked one every cycle;
        * fetch — a thread with a full fetch buffer does nothing and has
          no reopen event (on an SMT core it fails eligibility before any
          gate probe); any other thread contributes its reopen cycle
          (``_next_fetch_cycle``).

        On an SMT core this is exactly the machine-wide inertness the
        shared wheel, FU pool and fetch port require.
        """
        ring = self._ring
        mask = self._mask
        far = self._far
        if far and cycle in far:
            return 0
        threads = self._threads
        kernel = self.kernel
        # Earliest non-wheel event, capped at the wheel horizon.
        limit = cycle + mask
        mshr_wait = False
        for thread in threads:
            entries = thread.rob_entries
            if entries and entries[0].completed:
                return 0
            latch = thread.fetch_latch
            head = latch.head
            if head < len(latch.instrs):
                at = latch.stamps[head]
                if at <= cycle:
                    return 0
                if at < limit:
                    limit = at
            iq = thread.iq
            ready = iq.ready_list
            if ready:
                if not iq.ready_sorted:
                    return 0
                # A no-select controller that blocks a ready instruction
                # counts it every cycle: step.  Its probe is pure, and its
                # state is frozen while no hook fires.
                blocks_selection = (
                    thread.controller.blocks_selection
                    if thread.ctrl_blocks_selection else None
                )
                for instr in ready:
                    if instr.squashed or instr.static.fu_code != _FU_MEM_READ:
                        return 0
                    if blocks_selection is not None and blocks_selection(instr):
                        return 0
                mshr_wait = True
            latch = thread.decode_latch
            head = latch.head
            if head < len(latch.instrs):
                at = latch.stamps[head]
                if at > cycle:
                    if at < limit:
                        limit = at
                else:
                    instr = latch.instrs[head]
                    if instr.squashed:
                        return 0
                    is_mem = instr.static.is_mem
                    caps = kernel.shared_caps
                    if not (
                        len(entries) >= thread.rob.size
                        or iq.count >= iq.size
                        or (is_mem and thread.lsq.occupied >= thread.lsq.size)
                        or (caps is not None and (
                            kernel.rob_count >= caps[0]
                            or kernel.iq_count >= caps[1]
                            or (is_mem and kernel.lsq_count >= caps[2])
                        ))
                    ):
                        return 0
        if mshr_wait:
            # Loads claim an MSHR only while fewer than ``mshr_count``
            # fills are outstanding; the earliest release bounds the wait.
            fu_pool = kernel.fu_pool
            held = 0
            for until in fu_pool._mshr_release:
                if until > cycle:
                    held += 1
                    if until < limit:
                        limit = until
            if held < fu_pool._mshr_count:
                return 0
        # The earliest cycle any thread's fetch could run again bounds
        # the window; a thread already fetchable means no window at all.
        # A full fetch buffer only drains on another event.
        open_threads = []
        for thread in threads:
            fetch_latch = thread.fetch_latch
            decode_latch = thread.decode_latch
            if (
                len(fetch_latch.instrs) - fetch_latch.head
                + len(decode_latch.instrs) - decode_latch.head
                >= thread.fetch_buffer
            ):
                continue
            at = self._next_fetch_cycle(thread, cycle)
            if at <= cycle:
                return 0
            if at < limit:
                limit = at
            open_threads.append(thread)
        # The wheel event scan: within the horizon a non-empty ring slot
        # identifies its event cycle exactly (issue never schedules past
        # ``mask`` cycles out); far-bucket events clamp from above.
        end = cycle + 1
        while end < limit and not ring[end & mask]:
            end += 1
        if far:
            for key in far:
                if cycle < key < end:
                    end = key
        count = end - cycle
        self._close_window(cycle, count, open_threads)
        return count

    def _probe_active_mask(self, controller, start: int) -> int:
        """The controller's fetch-gate schedule as a 4-cycle wheel mask,
        observed through side-effect-free ``next_active_cycle`` probes
        (valid across a window: gate state is frozen while no hook
        fires)."""
        active_mask = 0
        for offset in range(4):
            at = start + offset
            if controller.next_active_cycle(at) == at:
                active_mask |= 1 << (at & 3)
        return active_mask

    def _close_window(self, cycle: int, count: int, open_threads) -> None:
        """Close ``count`` skipped cycles in one batch, bit-identical to
        stepping them: constant occupancy, zero activity, and the
        per-cycle stall/throttle accounting of every thread's fetch
        regime (stall counters, gating-controller side effects, SMT
        policy gated-cycle counters) advanced in closed form.

        ``open_threads`` are the threads with room in their fetch buffer.
        The others fetch nothing for the whole window; on a solo core
        their fetch gate is still consulted every cycle and may reopen
        mid-window, so its closed cycles are counted from its wheel
        schedule.
        """
        kernel = self.kernel
        kernel.power.end_idle_cycles(kernel.rob_count / self.total_rob_size, count)
        stats = kernel.stats
        end = cycle + count
        solo = self._solo
        if solo is not None:
            # Single-thread fetch counts its own idle regimes, in check
            # order: a redirect/I-cache stall cycle bumps the redirect
            # counter and never consults the controller; past the stall
            # a gating controller is consulted (and counts a throttled
            # cycle) every cycle its gate is closed.
            start = solo.fetch_stall_until
            if start > end:
                start = end
            elif start < cycle:
                start = cycle
            if start > cycle:
                stats.redirect_stall_cycles += start - cycle
            probed = end - start
            if self._solo_gates and probed:
                controller = solo.controller
                if not open_threads and controller.next_active_cycle(start) < end:
                    # Only a full buffer keeps the window open past the
                    # gate's reopening.
                    active_mask = self._probe_active_mask(controller, start)
                    probed -= _wheel_count(active_mask, start, probed)
                if probed:
                    stats.fetch_throttled_cycles += probed
                    controller.close_gated_window(probed)
        else:
            # SMT: an idle cycle picks no thread, so the machine-level
            # stall counters stay untouched (exactly as stepped); what
            # must advance are the per-thread side effects of the
            # arbitration probes — the policy consults the fetch gate of
            # every thread that is neither stalled nor full each cycle.
            policy = self._conf_policy
            for thread in open_threads:
                start = thread.fetch_stall_until
                if start < cycle:
                    start = cycle
                probed = end - start
                if probed <= 0:
                    continue
                if thread.ctrl_gates_fetch:
                    controller = thread.controller
                    active_mask = self._probe_active_mask(controller, start)
                    gated = probed - _wheel_count(active_mask, start, probed)
                    if gated:
                        controller.close_gated_window(gated)
                else:
                    active_mask = 0b1111
                if policy is not None and not (
                    thread.ctrl_blocks_wp_fetch and thread.fetch_mode == "wrong"
                ):
                    # Eligible but duty-cycle-gated: the policy counts
                    # the thread as policy-gated on cycles its gate is
                    # open but its bandwidth level is inactive.
                    level_mask = ACTIVE_WHEEL_MASKS[
                        policy.level_for(thread.lowconf_inflight)
                    ]
                    gated_by_level = _wheel_count(
                        active_mask & ~level_mask & 0b1111, start, probed
                    )
                    if gated_by_level:
                        thread.policy_gated_cycles += gated_by_level
        stats.cycles += count
        kernel.cycle = end

    def _fast_forward(self, cycle: int) -> int:
        """The skip-entry gate: cycles fast-forwarded from ``cycle``, 0
        when this cycle must be stepped.

        Any core steps while writeback has work.  A solo thread only
        tries a window when commit and decode have none and its fetch is
        idle for a cheap-to-test reason (redirect/I-cache stall, a full
        fetch buffer, a closed fetch gate, or the oracle's wrong-path
        wait); an SMT core tries every cycle with no wheel event, its
        quiescence being machine-wide.  The gate runs on every stepped
        cycle, so its tests are slot and ``len`` loads, apart from the
        gate probe.
        """
        if self._ring[cycle & self._mask]:
            return 0
        solo = self._solo
        if solo is not None:
            # Commit or decode has work: step.  ``_try_skip`` proves
            # these too, but a failed call costs more than the test.
            entries = solo.rob_entries
            if entries and entries[0].completed:
                return 0
            fetch_latch = solo.fetch_latch
            head = fetch_latch.head
            tail = len(fetch_latch.instrs)
            if head < tail and fetch_latch.stamps[head] <= cycle:
                return 0
            decode_latch = solo.decode_latch
            if (
                cycle < solo.fetch_stall_until
                or (tail - head + len(decode_latch.instrs) - decode_latch.head
                    >= solo.fetch_buffer)
                or (self._solo_gates
                    and solo.controller.next_active_cycle(cycle) != cycle)
                or (self._solo_oracle and solo.fetch_mode == "wrong")
            ):
                return self._try_skip(cycle)
            return 0
        if self._smt_skip:
            return self._try_skip(cycle)
        return 0

    # ------------------------------------------------------------------
    # The two steppers (construction-time dispatch)
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the machine by one cycle."""
        kernel = self.kernel
        cycle = kernel.cycle
        if self._fast_forward(cycle):
            return
        activity = [0] * NUM_UNITS
        self.commit.tick(cycle, activity)
        self.writeback.tick(cycle, activity)
        self.issue.tick(cycle, activity)
        self.decode_rename.tick(cycle, activity)
        self.fetch.tick(cycle, activity)
        kernel.power.end_cycle(activity, kernel.rob_count / self.total_rob_size)
        kernel.stats.cycles += 1
        kernel.cycle = cycle + 1

    def step_checked(self) -> None:
        """``step`` with the checked modes' hooks: invariant checks after
        every stage tick (``config.sanitize``), the probe bus's per-cycle
        sampling (``config.telemetry``) and the pipetrace recorder's
        snapshot before and diff after every stage tick
        (``Processor.attach_tracer``), in any combination.

        ``Processor._finish_threads`` binds the kernel's ``_step`` to this
        method instead of ``step`` when the sanitizer or telemetry is
        set, and ``attach_tracer`` rebinds it, so the plain ``step``
        carries no mode branch and a run with every hook off pays
        nothing.  The stage sequence and the cycle close mirror ``step``
        exactly; no hook writes simulation state, so a checked run is
        bit-identical or raises :class:`~repro.errors.SanitizerError`.
        The bus samples occupancy at cycle top and differences the
        kernel's statistics at cycle bottom (see
        :class:`repro.telemetry.probes.ProbeBus`).  A fast-forwarded
        stretch is sampled once and scaled (``ProbeBus.idle_cycles``) and
        checked once at its last cycle — the structures are untouched
        across the batch, so one sample and one check cover every cycle
        of it, and no instruction moves for the tracer to record.
        """
        kernel = self.kernel
        probes = kernel.probes
        tracer = kernel.tracer
        sanitize = kernel.config.sanitize
        cycle = kernel.cycle
        count = self._fast_forward(cycle)
        if count:
            if probes is not None:
                probes.idle_cycles(kernel, count)
            if sanitize:
                check_invariants(kernel, "fast-forward", cycle + count - 1)
                check_cycle_end(kernel, cycle + count - 1)
            return
        if probes is not None:
            probes.begin_cycle(kernel, cycle)
        activity = [0] * NUM_UNITS
        for stage in (
            self.commit, self.writeback, self.issue, self.decode_rename, self.fetch,
        ):
            if tracer is not None:
                tracer.before(stage, cycle)
            stage.tick(cycle, activity)
            if tracer is not None:
                tracer.after(stage, cycle)
            if sanitize:
                check_invariants(kernel, stage.name, cycle)
        kernel.power.end_cycle(activity, kernel.rob_count / self.total_rob_size)
        kernel.stats.cycles += 1
        kernel.cycle = cycle + 1
        if probes is not None:
            probes.end_cycle(kernel)
        if sanitize:
            check_cycle_end(kernel, cycle)
