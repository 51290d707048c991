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
machine is provably inert — every thread's latch columns empty, no ready
instruction, no completed ROB head, and nothing due out of the
completion wheel this cycle — every stage tick is a no-op and the cycle
close is the power model's idle accumulation.  The scheduler then jumps
to the earliest *event* that could make any stage do work again, and
closes the skipped stretch in one batch.  Two event sources compose:

* **wheel events** — the next non-empty completion-ring slot (a scan
  bounded by the wheel horizon identifies its cycle exactly; far-bucket
  events clamp from above);
* **fetch reopen events** — per thread, the first cycle its fetch could
  run: the end of a redirect/I-cache stall, the controller's next
  fetch-gate slot (``SpeculationController.next_active_cycle``, an O(1)
  wheel probe for the bandwidth-level throttles, "never without a hook"
  for pipeline gating and the oracle's wrong-path wait), and — on an SMT
  core under the confidence-gating policy — the thread's bandwidth-level
  duty cycle.

The batch bookkeeping reuses the per-cycle arithmetic (the power model
loops its own ``end_cycle``; the stall/throttle counters and controller
side effects advance in closed form through
``SpeculationController.close_gated_window``), so a fast-forwarded run
is bit-identical to a stepped one — on single-thread *and* SMT cores,
gated or not.  ``ProcessorConfig.cycle_skip`` (REPRO_CYCLE_SKIP=0)
disables the engine, leaving the stepped path as the no-skip reference
that the equivalence goldens and the cost ledger's skip-off cell run;
results are identical either way.

**Two steppers.**  ``step`` is the plain cycle and carries no mode
branch; ``step_checked`` is the same cycle with the sanitizer's
invariant checks and the telemetry probe bus's sampling as optional
hooks.  ``Processor._finish_threads`` binds one of them once, at
construction.  Both enter through the same fast-forward gate
(``_fast_forward``).

The scheduler holds the stage components as plain attributes, so tests
and future scenarios can wrap or replace a single stage without touching
the kernel.
"""

from __future__ import annotations

from repro.core.levels import ACTIVE_WHEEL_MASKS, NEVER_ACTIVE
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

        policy = kernel.fetch_policy
        self._conf_policy = (
            policy if isinstance(policy, ConfidenceGatingPolicy) else None
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

        The quiescence guards prove every stage is a no-op: empty latch
        columns (rename and decode idle), empty ready lists (select/issue
        idle — the deferred FU-pool refresh is observable only through
        claims), uncompleted ROB heads (commit idle) and an empty wheel
        slot at the current cycle (writeback idle) — for *every* thread,
        which on an SMT core is exactly the machine-wide inertness the
        shared wheel and fetch port require.
        """
        threads = self._threads
        for thread in threads:
            if thread.fetch_latch.instrs or thread.decode_latch.instrs:
                return 0
            if thread.iq.ready_list:
                return 0
            entries = thread.rob_entries
            if entries and entries[0].completed:
                return 0
        ring = self._ring
        mask = self._mask
        if ring[cycle & mask]:
            return 0
        far = self._far
        if far and cycle in far:
            return 0
        # The earliest cycle any thread's fetch could run again bounds
        # the window; a thread already fetchable means no window at all.
        next_fetch = NEVER_ACTIVE
        for thread in threads:
            at = self._next_fetch_cycle(thread, cycle)
            if at <= cycle:
                return 0
            if at < next_fetch:
                next_fetch = at
        # The wheel event scan: within the horizon a non-empty ring slot
        # identifies its event cycle exactly (issue never schedules past
        # ``mask`` cycles out); far-bucket events clamp from above.
        limit = next_fetch
        bound = cycle + mask
        if limit > bound:
            limit = bound
        end = cycle + 1
        while end < limit and not ring[end & mask]:
            end += 1
        if far:
            for key in far:
                if cycle < key < end:
                    end = key
        count = end - cycle
        self._close_window(cycle, count)
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

    def _close_window(self, cycle: int, count: int) -> None:
        """Close ``count`` skipped cycles in one batch, bit-identical to
        stepping them: constant occupancy, zero activity, and the
        per-cycle stall/throttle accounting of every thread's fetch
        regime (stall counters, gating-controller side effects, SMT
        policy gated-cycle counters) advanced in closed form."""
        kernel = self.kernel
        power = kernel.power
        in_flight = kernel.rob_count
        power.end_idle_cycles(in_flight / self.total_rob_size, count)
        power.total_instr_cycles += in_flight * count
        stats = kernel.stats
        end = cycle + count
        solo = self._solo
        if solo is not None:
            # Single-thread fetch counts its own idle regimes, in check
            # order: a redirect/I-cache stall cycle bumps the redirect
            # counter and never consults the controller; past the stall
            # a gating controller is consulted (and counts a throttled
            # cycle) every cycle.
            stalled = min(end, solo.fetch_stall_until) - cycle
            if stalled > 0:
                stats.redirect_stall_cycles += stalled
            else:
                stalled = 0
            if self._solo_gates:
                throttled = count - stalled
                if throttled:
                    stats.fetch_throttled_cycles += throttled
                    solo.controller.close_gated_window(throttled)
        else:
            # SMT: an idle cycle picks no thread, so the machine-level
            # stall counters stay untouched (exactly as stepped); what
            # must advance are the per-thread side effects of the
            # arbitration probes — the policy consults every non-stalled
            # thread's fetch gate each cycle (front-end latches are
            # empty across the window, so the buffer check never trips).
            policy = self._conf_policy
            for thread in self._threads:
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

        A solo thread only tries a window when its fetch is idle for a
        cheap-to-test reason (redirect/I-cache stall, a closed fetch
        gate with empty front-end latches, or the oracle's wrong-path
        wait); an SMT core tries every cycle, its quiescence being
        machine-wide.
        """
        solo = self._solo
        if solo is not None:
            if (
                cycle < solo.fetch_stall_until
                or (self._solo_gates
                    and not solo.fetch_latch.instrs
                    and not solo.decode_latch.instrs
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
        power = kernel.power
        in_flight = kernel.rob_count
        power.end_cycle(activity, in_flight / self.total_rob_size)
        power.total_instr_cycles += in_flight
        kernel.stats.cycles += 1
        kernel.cycle = cycle + 1

    def step_checked(self) -> None:
        """``step`` with the checked modes' hooks: invariant checks after
        every stage tick (``config.sanitize``) and the probe bus's
        per-cycle sampling (``config.telemetry``), either or both.

        ``Processor._finish_threads`` binds the kernel's ``_step`` to this
        method instead of ``step`` when either mode is set, so the plain
        ``step`` carries no mode branch and a run with both modes off
        pays nothing.  The stage sequence and the cycle close mirror
        ``step`` exactly; neither hook writes simulation state, so a
        checked run is bit-identical or raises
        :class:`~repro.errors.SanitizerError`.  The bus samples occupancy
        at cycle top and differences the kernel's statistics at cycle
        bottom (see :class:`repro.telemetry.probes.ProbeBus`).  A
        fast-forwarded stretch is sampled once and scaled
        (``ProbeBus.idle_cycles``) and checked once at its last cycle —
        the structures are untouched across the batch, so one sample and
        one check cover every cycle of it.
        """
        kernel = self.kernel
        probes = kernel.probes
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
