"""Runtime pipeline invariant checks (sanitize mode).

When ``ProcessorConfig.sanitize`` is set the kernel steps through
:meth:`~repro.pipeline.stages.scheduler.CycleScheduler.step_checked`,
which calls :func:`check_invariants` after every stage tick and
:func:`check_cycle_end` when the cycle closes.  Each check recomputes a
ground truth from the pipeline structures themselves and compares it to
the incremental bookkeeping the hot loops maintain:

* ``rob-occupancy`` — the kernel's incremental ``rob_count`` equals the
  total entries across the threads' reorder buffers.
* ``iq-occupancy`` — each thread's issue-queue ``count`` (and the
  kernel's ``iq_count`` total) equals the number of dispatched,
  not-yet-issued instructions resident in that thread's ROB.
* ``lsq-occupancy`` — each thread's ``lsq.occupied`` (and the kernel's
  ``lsq_count`` total) equals the number of memory operations resident
  in that thread's ROB.
* ``renamer-free-list`` — a thread's pending-tag set is exactly the
  physical destinations of its uncompleted ROB entries: no tag leaks
  when its producer completes, commits or is squashed (tag-space
  conservation, the unbounded-tag analogue of free-list conservation).
* ``latch-monotone`` — ready stamps never decrease from head to tail of
  a front-end latch (entries are stamped before insertion and drain in
  order); read through the latch's ``iter_with_stamps`` protocol, which
  pairs each instruction with its entry in the latch's stamp column.
* ``latch-order`` — sequence numbers strictly increase within a latch.
* ``energy-ledger`` — with per-thread attribution on, the per-thread
  retirement ledger sums back to the shared totals: wasted joules to
  the per-unit wasted pool, committed/squashed counts to the kernel
  statistics.

A violation raises :class:`~repro.errors.SanitizerError` naming the
invariant, the stage after which it was detected, and the cycle.  The
checks are deliberately simple re-summations — O(in-flight
instructions) per stage tick — and live behind the construction-time
dispatch in ``Processor._finish_threads``, so a run without sanitize
mode never pays for them.
"""

from __future__ import annotations

import math

from repro.errors import SanitizerError

# Different summation order (per-unit pools vs per-instruction ledger)
# accumulates different rounding; identical bookkeeping agrees to many
# more digits than this.
_REL_TOL = 1e-9
_ABS_TOL = 1e-15


def _fail(invariant: str, stage: str, cycle: int, detail: str) -> None:
    raise SanitizerError(
        f"invariant '{invariant}' violated after stage '{stage}' "
        f"at cycle {cycle}: {detail}"
    )


def check_invariants(kernel, stage: str, cycle: int) -> None:
    """Verify the structural invariants; called after every stage tick."""
    rob_total = 0
    iq_total = 0
    lsq_total = 0
    for thread in kernel.threads:
        entries = thread.rob_entries
        rob_total += len(entries)

        unissued = 0
        mem_ops = 0
        pending = set()
        for instr in entries:
            if not instr.issued:
                unissued += 1
            if instr.static.is_mem:
                mem_ops += 1
            if instr.phys_dest >= 0 and not instr.completed:
                pending.add(instr.phys_dest)

        iq_count = thread.iq.count
        if iq_count != unissued:
            _fail(
                "iq-occupancy", stage, cycle,
                f"thread {thread.thread_id}: iq.count={iq_count} but the "
                f"ROB holds {unissued} dispatched, unissued instructions",
            )
        iq_total += iq_count

        occupied = thread.lsq.occupied
        if occupied != mem_ops:
            _fail(
                "lsq-occupancy", stage, cycle,
                f"thread {thread.thread_id}: lsq.occupied={occupied} but "
                f"the ROB holds {mem_ops} memory operations",
            )
        lsq_total += occupied

        tags = thread.renamer.pending_tags
        if tags != pending:
            stale = sorted(tags - pending)[:5]
            lost = sorted(pending - tags)[:5]
            _fail(
                "renamer-free-list", stage, cycle,
                f"thread {thread.thread_id}: pending tags disagree with "
                f"the ROB's uncompleted destinations "
                f"(stale={stale}, lost={lost})",
            )

        _check_latch(thread, thread.fetch_latch, "fetch", stage, cycle)
        _check_latch(thread, thread.decode_latch, "decode", stage, cycle)

    if rob_total != kernel.rob_count:
        _fail(
            "rob-occupancy", stage, cycle,
            f"incremental rob_count={kernel.rob_count} but the threads' "
            f"reorder buffers hold {rob_total} entries",
        )
    if iq_total != kernel.iq_count:
        _fail(
            "iq-occupancy", stage, cycle,
            f"incremental iq_count={kernel.iq_count} but the threads' "
            f"issue queues hold {iq_total} entries",
        )
    if lsq_total != kernel.lsq_count:
        _fail(
            "lsq-occupancy", stage, cycle,
            f"incremental lsq_count={kernel.lsq_count} but the threads' "
            f"load/store queues hold {lsq_total} entries",
        )


def _check_latch(thread, latch, latch_name: str, stage: str, cycle: int) -> None:
    # ``iter_with_stamps`` pairs each entry with its ready stamp, which
    # the latch keeps in its own column rather than on the instruction.
    last_ready = -1
    last_seq = -1
    for instr, ready in latch.iter_with_stamps():
        if ready < last_ready:
            _fail(
                "latch-monotone", stage, cycle,
                f"thread {thread.thread_id} {latch_name} latch: "
                f"latch_ready drops from {last_ready} to {ready} at "
                f"seq {instr.seq}",
            )
        if instr.seq <= last_seq:
            _fail(
                "latch-order", stage, cycle,
                f"thread {thread.thread_id} {latch_name} latch: seq "
                f"{instr.seq} does not increase past {last_seq}",
            )
        last_ready = ready
        last_seq = instr.seq


def check_cycle_end(kernel, cycle: int) -> None:
    """Verify the cross-structure totals once per cycle, after power
    integration (the per-thread energy ledger only updates at retirement,
    so once per cycle is as often as it can drift)."""
    power = kernel.power
    if not power.attribute_threads:
        return
    ledger = power._thread_ledger
    wasted_joules = 0.0
    committed = 0
    squashed = 0
    for entry in ledger.values():
        wasted_joules += entry[1]
        committed += entry[2]
        squashed += entry[3]
    pool = sum(power.wasted_energy)
    if not math.isclose(wasted_joules, pool, rel_tol=_REL_TOL, abs_tol=_ABS_TOL):
        _fail(
            "energy-ledger", "cycle-end", cycle,
            f"thread ledgers sum to {wasted_joules!r} wasted joules but "
            f"the per-unit wasted pool holds {pool!r}",
        )
    stats = kernel.stats
    if committed != stats.committed:
        _fail(
            "energy-ledger", "cycle-end", cycle,
            f"thread ledgers account {committed} committed instructions "
            f"but the kernel counted {stats.committed}",
        )
    if squashed != stats.squashed:
        _fail(
            "energy-ledger", "cycle-end", cycle,
            f"thread ledgers account {squashed} squashed instructions "
            f"but the kernel counted {stats.squashed}",
        )
