"""Instruction supplies: the program walk the fetch stage consumes.

:class:`CompiledSupply` is the simulator's one instruction walker.  It
serves two streams, both generated a whole basic block at a time:

* **true path** — an indexable ring of ``(static, taken, target_block,
  mem_address)`` tuples (``_records`` / ``_base``, ``get``,
  ``prune_before``); the fetch stage indexes the ring directly, and
  calibration walks it through ``get``;
* **wrong path** — ``wrong_packet(cursor)`` returns ``(records, end)``:
  every record of the cursor's block up to and including its terminator,
  plus the cursor the walk continues from.  A cursor is ``(block_id,
  index, stack, step)``; since a block's only control instruction is its
  last (:meth:`~repro.program.cfg.BasicBlock.validate`), every cursor the
  walk hands out sits at the top of a block (``index`` 0).

**True path.**  Branch outcomes come from the program's behaviour models,
advanced in true-path order; the supply takes ownership of that state
(``reset_behaviors``), so only one live supply may walk a ``Program``
instance at a time.  A memory access walks its working set
(``mem_footprint``) with the instruction's stride, one step per visit, so
cache behaviour follows the footprint.

**Wrong path.**  Walks are stateless: a branch outcome is a pure hash of
(seed, block, step), so revisiting a wrong path yields the same stream
while distinct divergences decorrelate, and speculative fetch can never
corrupt true-path behaviour state.  A return with an empty speculative
stack jumps to a hash-chosen block, the speculative call stack caps at 64
entries, and data accesses scatter over the instruction's whole 1 MB
region: down a wrong path the address register holds stale values, so
speculative loads *pollute* the caches (the paper's §3) instead of
prefetching the lines the true path is about to touch.

**Pre-lowering.**  Each basic block is compiled once into a packet
template: records that never change (non-memory body instructions,
unconditional jump/call terminators, zero-stride memory accesses) are
built a single time and *shared* across every visit — records are
immutable tuples, so aliasing is unobservable — while dynamic slots
(strided memory, conditional/return terminators) are stamped per visit.
Wrong-path hashing chains :func:`~repro.utils.rng.stateless_hash_step`
once per argument: the per-static / per-block first step is
precomputed, leaving one splitmix step per stamp.  Table compilation is
cached on the ``Program`` instance, so the many cells of a figure sweep
that share a memoised program compile once.

Both streams are pinned by SHA-256 goldens in
``tests/test_frontend_supply.py`` and, end to end, by the 39 golden
fingerprints of ``tests/test_stage_kernel_parity.py``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.errors import ProgramError, SimulationError
from repro.program.cfg import Program, TerminatorKind
from repro.utils.rng import derive_seed, stateless_hash_step as _hash_step

# A wrong-path cursor: (block_id, instr_index, call_stack_tuple, step).
WrongPathCursor = Tuple[int, int, Tuple[int, ...], int]

# Width of the true-path global history the behaviour models read.
_HISTORY_MASK = (1 << 32) - 1

_MASK64 = (1 << 64) - 1

# Wrong-path data accesses scatter over the whole 1 MB region.
_WP_SPAN_MASK = 0x10_0000 - 1

# Terminator kinds as small ints (enum identity checks are a hot-loop
# regression; see docs/ARCHITECTURE.md "Performance invariants").
_K_FALL, _K_COND, _K_JUMP, _K_CALL, _K_RET = range(5)
_KIND_CODES = {
    TerminatorKind.FALL: _K_FALL,
    TerminatorKind.COND: _K_COND,
    TerminatorKind.JUMP: _K_JUMP,
    TerminatorKind.CALL: _K_CALL,
    TerminatorKind.RET: _K_RET,
}


# ----------------------------------------------------------------------
# Pre-lowered block tables
# ----------------------------------------------------------------------

class _TrueBlock:
    """One basic block lowered for true-path generation.

    ``variant_taken``/``variant_not`` are complete, shareable record
    lists for memory-free conditional blocks — the most common block
    shape — whose only per-visit variation is the terminator outcome.
    """

    __slots__ = (
        "block_id",
        "n",
        "template",
        "mem_ops",
        "kind",
        "taken_target",
        "fall_target",
        "behavior",
        "term_static",
        "dynamic",
        "variant_taken",
        "variant_not",
    )


class _WpBlock:
    """One basic block lowered for wrong-path packet stamping.

    Like :class:`_TrueBlock`, memory-free conditional blocks carry both
    outcome variants prebuilt, so their packets are served without a copy.
    """

    __slots__ = (
        "n",
        "template",
        "mem_ops",
        "kind",
        "taken_target",
        "fall_target",
        "term_static",
        "block_partial",
        "variant_taken",
        "variant_not",
    )


class CompiledTables:
    """Per-program pre-lowered block tables, cached on the ``Program``.

    True-path tables are pure functions of the program text; wrong-path
    tables additionally bake in partial hash states of the derived
    wrong-path seed, so they are cached per seed.  Blocks are compiled
    lazily — short runs touch a fraction of a large program.

    The tables reach their program through a weak proxy: the program
    owns them, and a strong back-reference would make every program
    whose supply was ever built cyclic garbage once dropped.
    """

    __slots__ = ("program", "_true", "_wp_by_seed")

    def __init__(self, program: Program) -> None:
        self.program = weakref.proxy(program)
        self._true: Dict[int, _TrueBlock] = {}
        self._wp_by_seed: Dict[int, Dict[int, _WpBlock]] = {}

    @staticmethod
    def of(program: Program) -> "CompiledTables":
        tables = getattr(program, "_frontend_tables", None)
        if tables is None:
            tables = CompiledTables(program)
            program._frontend_tables = tables
        return tables

    def wp_cache(self, wp_seed: int) -> Dict[int, _WpBlock]:
        cache = self._wp_by_seed.get(wp_seed)
        if cache is None:
            cache = self._wp_by_seed[wp_seed] = {}
        return cache

    def _resolve(self, block_id: int):
        """The first non-empty block of the fall-through chain at
        ``block_id`` (only FALL blocks may be empty)."""
        blocks = self.program.blocks
        block = blocks[block_id]
        hops = 0
        while not block.instructions:
            block = blocks[block.fall_target]
            hops += 1
            if hops > len(blocks):
                raise ProgramError("cycle of empty fall-through blocks")
        return block

    # -- true-path lowering

    def true_block(self, block_id: int) -> _TrueBlock:
        entry = self._true.get(block_id)
        if entry is None:
            entry = self._compile_true(block_id)
            self._true[block_id] = entry
        return entry

    def _compile_true(self, block_id: int) -> _TrueBlock:
        block = self._resolve(block_id)
        statics = block.instructions
        n = len(statics)
        kind = _KIND_CODES[block.kind]
        term = statics[-1]

        template: List[Optional[tuple]] = [None] * n
        mem_ops = []
        for idx, static in enumerate(statics):
            is_term = idx == n - 1 and kind != _K_FALL
            if is_term:
                continue  # terminator slot handled below
            if static.is_mem:
                base = 0x1000_0000 + static.mem_region * 0x10_0000
                mask = static.mem_footprint - 1
                if static.mem_stride == 0:
                    # Zero-stride accesses hit a fixed offset of their
                    # working set: the record is a per-block constant.
                    address = base + (((static.address * 16) & mask) & ~0x3)
                    template[idx] = (static, False, -1, address)
                else:
                    mem_ops.append(
                        (idx, static, static.address, static.mem_stride, mask, base)
                    )
            else:
                template[idx] = (static, False, -1, 0)

        if kind == _K_JUMP or kind == _K_CALL:
            template[n - 1] = (term, True, block.taken_target, 0)

        entry = _TrueBlock()
        entry.block_id = block.block_id
        entry.n = n
        entry.template = template
        entry.mem_ops = tuple(mem_ops)
        entry.kind = kind
        entry.taken_target = block.taken_target
        entry.fall_target = block.fall_target
        entry.behavior = block.behavior
        entry.term_static = term
        entry.dynamic = bool(mem_ops) or kind == _K_COND or kind == _K_RET
        entry.variant_taken = None
        entry.variant_not = None
        if kind == _K_COND and not mem_ops:
            # Memory-free conditional block: the whole record list is a
            # per-outcome constant.  Records are immutable and consumers
            # treat packets/rings as read-only, so both variants are
            # shared across every visit.
            taken = template.copy()
            taken[n - 1] = (term, True, block.taken_target, 0)
            not_taken = template.copy()
            not_taken[n - 1] = (term, False, block.fall_target, 0)
            entry.variant_taken = taken
            entry.variant_not = not_taken
        return entry

    # -- wrong-path lowering

    def wp_block(self, block_id: int, wp_seed: int, cache: Dict[int, _WpBlock]) -> _WpBlock:
        entry = cache.get(block_id)
        if entry is None:
            entry = self._compile_wp(block_id, wp_seed)
            cache[block_id] = entry
        return entry

    def _compile_wp(self, block_id: int, wp_seed: int) -> _WpBlock:
        block = self._resolve(block_id)
        statics = block.instructions
        n = len(statics)
        kind = _KIND_CODES[block.kind]
        term = statics[-1]
        seed_state = wp_seed & _MASK64

        template: List[Optional[tuple]] = [None] * n
        mem_ops = []
        for idx, static in enumerate(statics):
            is_last = idx == n - 1
            if is_last and kind != _K_FALL:
                if kind == _K_JUMP or kind == _K_CALL:
                    template[idx] = (term, True, block.taken_target, 0)
                continue  # COND/RET outcome stamped per packet
            # Down a wrong path, the last record of a FALL block carries
            # its fall-through target.
            taken, target = (False, block.fall_target) if is_last else (False, -1)
            if static.is_mem:
                mem_ops.append(
                    (
                        idx,
                        static,
                        taken,
                        target,
                        _hash_step(seed_state, static.address),
                        0x1000_0000 + static.mem_region * 0x10_0000,
                    )
                )
            else:
                template[idx] = (static, taken, target, 0)

        entry = _WpBlock()
        entry.n = n
        entry.template = template
        entry.mem_ops = tuple(mem_ops)
        entry.kind = kind
        entry.taken_target = block.taken_target
        entry.fall_target = block.fall_target
        entry.term_static = term
        entry.block_partial = _hash_step(seed_state, block.block_id)
        entry.variant_taken = None
        entry.variant_not = None
        if kind == _K_COND and not mem_ops:
            taken = template.copy()
            taken[n - 1] = (term, True, block.taken_target, 0)
            not_taken = template.copy()
            not_taken[n - 1] = (term, False, block.fall_target, 0)
            entry.variant_taken = taken
            entry.variant_not = not_taken
        return entry


class CompiledSupply:
    """The fetch stage's instruction source: pre-lowered per-block packets.

    Provides the true-path ring (``_records``/``_base`` plus :meth:`get`
    / :meth:`prune_before`) and the wrong-path packet walk
    (:meth:`start_cursor` / :meth:`wrong_packet`), both doing per-*block*
    rather than per-*instruction* Python work.

    Constructing a supply takes ownership of the program's
    branch-behaviour state (``reset_behaviors``); build one supply per
    concurrent walker.
    """

    __slots__ = (
        "program", "_tables", "_wp_seed", "_wp_cache", "_nblocks",
        "_records", "_base", "_block_id", "_stack", "global_history",
        "_visit_counts",
    )

    def __init__(self, program: Program, seed: int) -> None:
        if not program.finalized:
            raise ProgramError("program must be finalized before walking")
        self.program = program
        program.reset_behaviors()
        self._tables = CompiledTables.of(program)
        self._wp_seed = derive_seed(seed, "wrongpath")
        self._wp_cache = self._tables.wp_cache(self._wp_seed)
        self._nblocks = len(program.blocks)
        # True-path ring and walk state: the next block to generate, the
        # call stack, the global branch history and per-instruction
        # memory visit counts.
        self._records: List[tuple] = []
        self._base = 0
        self._block_id = program.entry_block
        self._stack: List[int] = []
        self.global_history = 0
        self._visit_counts: Dict[int, int] = {}

    # -- true path ------------------------------------------------------

    def get(self, stream_index: int) -> tuple:
        """Return the record at an absolute stream index, generating as needed."""
        offset = stream_index - self._base
        records = self._records
        if 0 <= offset < len(records):
            return records[offset]
        if offset < 0:
            raise SimulationError(
                f"true-path record {stream_index} was pruned (base={self._base})"
            )
        self._generate_blocks(offset - len(records) + 1)
        return records[offset]

    def prune_before(self, stream_index: int) -> None:
        """Drop records older than ``stream_index`` (already committed)."""
        drop = stream_index - self._base
        if drop > 0:
            del self._records[:drop]
            self._base = stream_index

    def _generate_blocks(self, count: int) -> None:
        """Extend the ring by at least ``count`` records, whole blocks at
        a time (generating ahead of the consumer is unobservable: the walk
        has no external effects beyond the behaviour state it advances in
        true-path order)."""
        records = self._records
        extend = records.extend
        tables = self._tables
        true_block = tables.true_block
        block_id = self._block_id
        visit_counts = self._visit_counts
        stack = self._stack
        produced = 0
        while produced < count:
            tb = true_block(block_id)
            kind = tb.kind
            if not tb.dynamic:
                # Fully-constant block: share the template records as-is.
                extend(tb.template)
                if kind == _K_JUMP:
                    block_id = tb.taken_target
                elif kind == _K_CALL:
                    stack.append(tb.fall_target)
                    block_id = tb.taken_target
                else:  # FALL
                    block_id = tb.fall_target
                produced += tb.n
                continue

            if tb.variant_taken is not None:
                # Memory-free conditional block: resolve the outcome and
                # share the matching prebuilt variant — no per-visit
                # record construction at all.
                outcome = tb.behavior.next_outcome(self.global_history)
                self.global_history = (
                    (self.global_history << 1) | int(outcome)
                ) & _HISTORY_MASK
                if outcome:
                    extend(tb.variant_taken)
                    block_id = tb.taken_target
                else:
                    extend(tb.variant_not)
                    block_id = tb.fall_target
                produced += tb.n
                continue

            recs = tb.template.copy()
            for idx, static, key, stride, mask, base in tb.mem_ops:
                visit = visit_counts.get(key, 0)
                visit_counts[key] = visit + 1
                recs[idx] = (
                    static, False, -1, base + (((stride * visit) & mask) & ~0x3)
                )

            if kind == _K_COND:
                outcome = tb.behavior.next_outcome(self.global_history)
                self.global_history = (
                    (self.global_history << 1) | int(outcome)
                ) & _HISTORY_MASK
                target = tb.taken_target if outcome else tb.fall_target
                taken = outcome
                block_id = target
            elif kind == _K_JUMP:
                taken, target = True, tb.taken_target
                block_id = tb.taken_target
            elif kind == _K_CALL:
                stack.append(tb.fall_target)
                taken, target = True, tb.taken_target
                block_id = tb.taken_target
            elif kind == _K_RET:
                if not stack:
                    raise ProgramError(
                        f"return with empty call stack in block {tb.block_id}"
                    )
                target = stack.pop()
                taken = True
                block_id = target
            else:  # FALL block with strided memory slots: already stamped.
                extend(recs)
                block_id = tb.fall_target
                produced += tb.n
                continue

            recs[-1] = (tb.term_static, taken, target, 0)
            extend(recs)
            produced += tb.n
        self._block_id = block_id

    # -- wrong path -----------------------------------------------------

    def start_cursor(self, block_id: int, salt: int) -> WrongPathCursor:
        """Cursor for entering a wrong path at the top of ``block_id``."""
        return (block_id, 0, (), salt & 0xFFFF)

    def wrong_packet(self, cursor):
        """Return ``(records, end_cursor)`` for the wrong path at ``cursor``.

        ``records`` is a non-empty list of ``(static, taken, target_block,
        mem_address)`` tuples covering the cursor's block up to and
        including its terminator, stamped from the block's pre-lowered
        table; ``end_cursor`` is where the walk continues.  Only the last
        record of a packet may be a control instruction.  The cursor's
        ``index`` is always 0 (see the module docstring).
        """
        block_id, _, stack, step = cursor
        wpb = self._wp_cache.get(block_id)
        if wpb is None:
            wpb = self._tables.wp_block(block_id, self._wp_seed, self._wp_cache)

        n = wpb.n
        end_step = step + n
        kind = wpb.kind
        if wpb.variant_taken is not None:
            # Memory-free conditional block: hash the outcome and share
            # the matching prebuilt packet.
            if _hash_step(wpb.block_partial, end_step - 1) & 1:
                return wpb.variant_taken, (wpb.taken_target, 0, stack, end_step)
            return wpb.variant_not, (wpb.fall_target, 0, stack, end_step)
        mem_ops = wpb.mem_ops
        if not mem_ops:
            if kind == _K_JUMP:
                # Fully-constant packet: records are immutable and the
                # fetch loop treats packets as read-only, so the template
                # itself is shared across every visit.
                return wpb.template, (wpb.taken_target, 0, stack, end_step)
            if kind == _K_CALL:
                if len(stack) < 64:
                    stack = stack + (wpb.fall_target,)
                return wpb.template, (wpb.taken_target, 0, stack, end_step)
            if kind == _K_FALL:
                return wpb.template, (wpb.fall_target, 0, stack, end_step)
            records = wpb.template.copy()
        else:
            records = wpb.template.copy()
            for idx, static, taken, target, partial, base in mem_ops:
                h = _hash_step(partial, step + idx)
                records[idx] = (
                    static, taken, target, base + ((h & _WP_SPAN_MASK) & ~0x3)
                )
        if kind == _K_COND:
            outcome = _hash_step(wpb.block_partial, end_step - 1) & 1
            target = wpb.taken_target if outcome else wpb.fall_target
            records[n - 1] = (wpb.term_static, bool(outcome), target, 0)
            return records, (target, 0, stack, end_step)
        if kind == _K_JUMP:
            return records, (wpb.taken_target, 0, stack, end_step)
        if kind == _K_CALL:
            if len(stack) < 64:
                stack = stack + (wpb.fall_target,)
            return records, (wpb.taken_target, 0, stack, end_step)
        if kind == _K_RET:
            if stack:
                target = stack[-1]
                stack = stack[:-1]
            else:
                target = (
                    _hash_step(_hash_step(wpb.block_partial, end_step - 1), 7)
                    % self._nblocks
                )
            records[n - 1] = (wpb.term_static, True, target, 0)
            return records, (target, 0, stack, end_step)
        # FALL: the template already carries the final record.
        return records, (wpb.fall_target, 0, stack, end_step)

