"""Flat array state for the stage kernel.

The stage kernel keeps its hot per-cycle state in flat parallel columns
instead of per-instruction attribute traffic:

* :class:`LatchArray` — a front-end latch as two parallel lists
  (``instrs``, ``stamps``) plus a ``head`` index.  The producing stage
  appends an instruction and its ready-cycle stamp; the consuming stage
  advances ``head`` past elapsed stamps (en bloc where it can) instead of
  popping a deque entry at a time, and compacts the columns when the
  consumed prefix grows.  The stamp lives in the latch, not on the
  instruction, so moving a whole fetch packet is two C-level ``extend``
  calls.
* :class:`CompletionWheel` — the execute→writeback latch as a power-of-2
  ring of buckets indexed by ``cycle & mask``.  Scheduling a completion
  is one masked index instead of a dict probe, and the writeback drain
  rebinds one ring slot.  Latencies beyond the ring horizon (impossible
  under the shipped configurations — the ring is sized from the worst
  static + memory latency — but kept correct anyway) fall back to the
  ``far_buckets`` dict.
* :func:`materialize_tally` — the kernel stores *no* per-unit access
  tally on in-flight instructions.  An instruction's tally is a
  pure function of its static flags and a few dynamic bits (``issued``,
  ``completed``, ``woke``, ``dcache_missed``, ``phys_dest``), so the two
  cold paths that need one (per-thread energy attribution at retirement,
  and backend squash accounting) reconstruct it on demand.  The
  reconstruction counts, unit by unit, exactly the accesses the stages
  charge to the per-cycle activity array, so the wasted and useful pools
  add up to the same floats the goldens pin.

Slot recycling: a latch slot is "recycled" by the head index — consumed
entries are left in place until the columns either drain completely
(``clear``, the common case: a latch usually empties every cycle) or the
dead prefix passes :data:`COMPACT_THRESHOLD` and is deleted in one slice
operation.  Ring buckets are recycled by rebinding the drained slot to a
fresh list.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.instruction import DynamicInstruction
from repro.power.units import NUM_UNITS, PowerUnit

_ICACHE = int(PowerUnit.ICACHE)
_BPRED = int(PowerUnit.BPRED)
_REGFILE = int(PowerUnit.REGFILE)
_RENAME = int(PowerUnit.RENAME)
_WINDOW = int(PowerUnit.WINDOW)
_LSQ = int(PowerUnit.LSQ)
_ALU = int(PowerUnit.ALU)
_DCACHE = int(PowerUnit.DCACHE)
_DCACHE2 = int(PowerUnit.DCACHE2)
_RESULTBUS = int(PowerUnit.RESULTBUS)

# Dead-prefix length beyond which a latch compacts without a full drain
# (a latch almost always drains completely instead; see ``advance``).
COMPACT_THRESHOLD = 512


class LatchArray:
    """A front-end latch as parallel ``instrs``/``stamps`` columns.

    Models the front end's staging flip-flops between exactly two stages
    (fetch→decode or decode→rename).  The producing stage stamps each
    instruction's ready cycle; the consuming stage may take it once the
    stamp is ``<= now`` — that is how the configurable fetch→decode and
    decode→rename depths of the paper's Figure 6 sweep are realised.
    The columns are public and the two stages mutate them directly in
    their hot loops; the contract they uphold:

    * the producer appends ``instrs[i]`` and its ready cycle
      ``stamps[i]`` together, only after computing the stamp;
    * stamps are monotonically non-decreasing from ``head`` to the tail
      (single producer, constant latency), so the consumer may take the
      longest prefix with ``stamps[i] <= now`` in one scan and commits
      it with :meth:`advance`;
    * only squash recovery clears the latch wholesale (:meth:`clear`).
    """

    __slots__ = ("instrs", "stamps", "head")

    def __init__(self) -> None:
        self.instrs: List[DynamicInstruction] = []
        self.stamps: List[int] = []
        self.head = 0

    def __len__(self) -> int:
        return len(self.instrs) - self.head

    def iter_with_stamps(self):
        """Yield ``(instr, ready_cycle)`` pairs, head to tail.

        The latch-inspection protocol: the sanitizer verifies stamp
        monotonicity and sequence order through this iterator.
        """
        head = self.head
        return zip(self.instrs[head:], self.stamps[head:])

    def advance(self, head: int) -> None:
        """Commit the consumer's new head index and recycle dead slots."""
        instrs = self.instrs
        if head == len(instrs):
            instrs.clear()
            self.stamps.clear()
            self.head = 0
        elif head >= COMPACT_THRESHOLD:
            del instrs[:head]
            del self.stamps[:head]
            self.head = 0
        else:
            self.head = head

    def clear(self) -> None:
        """Drop every entry (squash recovery)."""
        self.instrs.clear()
        self.stamps.clear()
        self.head = 0


class CompletionWheel:
    """The execute→writeback latch as a power-of-2 timing ring.

    Issued instructions are binned by absolute completion cycle, and
    writeback drains exactly one bin per cycle.  The contract the two
    mutating stages uphold: select/issue appends an instruction to the
    bin of its completion cycle; execute/writeback takes exactly the
    current cycle's bin.  ``buckets[cycle & mask]`` holds the
    instructions completing at ``cycle``; the attribute keeps the
    ``buckets`` name so the stage contract checker (CON001) maps
    accesses to the ``completions`` surface.  Ring validity: the issue
    stage only schedules ``latency <= mask`` into the ring (longer
    latencies — none under shipped configurations — go to
    ``far_buckets``), and writeback
    drains a slot at exactly its cycle, so a slot never holds two live
    cycles at once and a non-empty slot within the horizon identifies
    its event cycle exactly (the cycle-skip scan relies on this).
    """

    __slots__ = ("buckets", "mask", "far_buckets")

    def __init__(self, span: int) -> None:
        size = 1
        while size <= span:
            size <<= 1
        self.buckets: List[List[DynamicInstruction]] = [
            [] for _ in range(size)
        ]
        self.mask = size - 1
        self.far_buckets: Dict[int, List[DynamicInstruction]] = {}

    def pending_at(self, cycle: int) -> int:
        """Instructions scheduled to complete at ``cycle`` (probe API)."""
        count = len(self.buckets[cycle & self.mask])
        if self.far_buckets:
            far = self.far_buckets.get(cycle)
            if far is not None:
                count += len(far)
        return count


def completion_span(config, miss_penalty: int) -> int:
    """Worst completion latency the issue stage can schedule.

    Static opcode latency (12 for DIV) plus the deep-pipeline extra, a
    full L1→TLB-miss→L2→memory load walk, and the deep-pipeline D-cache
    extra; a margin absorbs future opcode additions.  The wheel rounds
    this up to a power of two (128 for the paper's Table 3 baseline).
    """
    return (
        12
        + config.extra_exec_latency
        + config.l1_latency
        + miss_penalty
        + config.l2_latency
        + config.memory_latency
        + config.extra_dcache_latency
        + 8
    )


def materialize_tally(
    instr: DynamicInstruction,
    in_backend: bool,
    at_commit: bool = False,
    store_miss: bool = False,
) -> List[int]:
    """Reconstruct an instruction's per-unit access tally from its flags.

    Counts exactly the accesses the stages charge per instruction:

    * fetch — one I-cache access for everyone, one predictor access for
      any control instruction;
    * rename/dispatch (backend residents only) — one rename port, one
      regfile read per source, one window write, one LSQ allocate for
      memory ops;
    * issue (``issued``) — one window read, one ALU slot, and for loads
      one D-cache access (plus an L2 access if ``dcache_missed``) and a
      second LSQ access (stores pay their second LSQ access at issue
      too);
    * writeback (``completed``) — one result-bus broadcast when a
      physical destination exists, one window wakeup write when the
      broadcast woke dependents (``woke``);
    * commit (``at_commit``) — one regfile write when a destination
      exists, the store's D-cache access (plus L2 on ``store_miss``) and
      the committed conditional branch's predictor training access.

    Front-end latch residents (``in_backend=False``) reduce to the
    fetch-time shape.  The caller is responsible for passing flags
    consistent with the instruction's pipeline position.
    """
    tally = [0] * NUM_UNITS
    tally[_ICACHE] = 1
    static = instr.static
    if static.is_branch:
        tally[_BPRED] = 1
    if not in_backend:
        return tally
    issued = instr.issued
    tally[_REGFILE] = len(static.sources)
    tally[_RENAME] = 1
    window = 1
    if issued:
        window += 1
    if instr.woke:
        window += 1
    tally[_WINDOW] = window
    if static.is_mem:
        tally[_LSQ] = 2 if issued else 1
    if issued:
        tally[_ALU] = 1
        if static.is_load:
            tally[_DCACHE] = 1
            if instr.dcache_missed:
                tally[_DCACHE2] = 1
    if instr.completed and instr.phys_dest >= 0:
        tally[_RESULTBUS] = 1
    if at_commit:
        if instr.phys_dest >= 0:
            tally[_REGFILE] += 1
        if static.is_store:
            tally[_DCACHE] += 1
            if store_miss:
                tally[_DCACHE2] = 1
        elif static.is_cond_branch:
            tally[_BPRED] += 1
    return tally
