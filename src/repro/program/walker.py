"""Dynamic instruction streams: the true path and wrong paths.

:class:`TruePathOracle` unrolls the architecturally correct execution of a
program into an indexable stream of :class:`DynamicRecord`.  The pipeline
front-end consumes this stream while its predictions are correct; a branch
misprediction makes it diverge onto a *wrong path*, which is served by
:class:`WrongPathNavigator` — a stateless walker over the same CFG whose
branch outcomes come from a pure hash, so speculative fetch can never
corrupt true-path behavioural state (loop counters, RNG streams).

Recovery is cursor-based: every fetched branch remembers the cursor of the
instruction that *actually* follows it, so a squash simply re-points the
front-end at that cursor (a true-stream index, or a wrong-path position for
branches that were themselves speculative).

These walkers are the **seed reference implementation** of the front-end
instruction-supply contract: the pipeline fetches through
:mod:`repro.frontend.supply`, whose ``CompiledSupply`` pre-lowers each
basic block into reusable packets serving bit-identical streams (parity
is enforced by ``tests/test_frontend_supply.py``).  The oracle still
drives calibration, and the compiled supply falls back to the navigator
for mid-block cursors and irregular blocks.  Any semantic change here
must be mirrored in the compiled tables — the parity suite will catch
it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.errors import ProgramError, SimulationError
from repro.program.cfg import Program, TerminatorKind
from repro.utils.rng import XorShiftRNG, derive_seed, stateless_hash

HISTORY_BITS = 32
_HISTORY_MASK = (1 << HISTORY_BITS) - 1

# Records generated beyond the requested true-path index per oracle miss.
_LOOKAHEAD = 16


class DynamicRecord(NamedTuple):
    """One instruction instance on the true path.

    A named tuple: the fetch stage unpacks all four fields at once per
    fetched instruction, while cold consumers (trace capture, predictor
    calibration) keep attribute access.
    """

    static: object
    taken: bool
    target_block: int
    mem_address: int

    def __repr__(self) -> str:
        return (
            f"DynamicRecord({self.static!r}, taken={self.taken}, "
            f"target={self.target_block})"
        )


class TruePathOracle:
    """Lazily generated, indexable true-path instruction stream.

    The stream is unbounded (synthetic programs loop forever); records are
    generated on demand and pruned once the simulator commits past them.

    Branch behaviour state lives inside the Program, and constructing an
    oracle resets it — so only one live oracle may walk a given Program
    instance at a time.  Build a fresh Program (generation is deterministic)
    for each concurrent walker.
    """

    def __init__(self, program: Program, seed: int) -> None:
        if not program.finalized:
            raise ProgramError("program must be finalized before walking")
        self.program = program
        program.reset_behaviors()
        self._records: List[DynamicRecord] = []
        self._base = 0  # stream index of _records[0]
        self._block = program.block(program.entry_block)
        self._index = 0
        self._stack: List[int] = []
        self.global_history = 0
        self._mem_rng = XorShiftRNG(derive_seed(seed, "truepath-mem"))
        self._visit_counts = {}
        self._region_seed = derive_seed(seed, "regions")

    def get(self, stream_index: int) -> DynamicRecord:
        """Return the record at an absolute stream index, generating as needed."""
        offset = stream_index - self._base
        records = self._records
        if 0 <= offset < len(records):  # fast path: already materialised
            return records[offset]
        if offset < 0:
            raise SimulationError(
                f"true-path record {stream_index} was pruned (base={self._base})"
            )
        # Materialise a look-ahead chunk: generation is deterministic and
        # all walk state is oracle-internal, so producing records early is
        # unobservable — and it lets the fetch stage index the ring
        # directly instead of calling back here once per instruction.
        self._generate(offset - len(records) + _LOOKAHEAD)
        return records[offset]

    def _generate(self, count: int) -> None:
        """Emit ``count`` more records (the :meth:`_generate_one` walk with
        the per-record state held in locals)."""
        records = self._records
        append = records.append
        visit_counts = self._visit_counts
        program = self.program
        block = self._block
        index = self._index
        for _ in range(count):
            hops = 0
            instructions = block.instructions
            while not instructions:
                if block.kind is not TerminatorKind.FALL:
                    raise ProgramError(f"empty non-FALL block {block.block_id}")
                block = program.block(block.fall_target)
                instructions = block.instructions
                hops += 1
                if hops > len(program.blocks):
                    raise ProgramError("cycle of empty fall-through blocks")

            static = instructions[index]
            is_terminator = index == len(instructions) - 1

            taken = False
            target_block = -1
            mem_address = 0

            if static.is_mem:
                address = static.address
                visit = visit_counts.get(address, 0)
                visit_counts[address] = visit + 1
                # data_address, inlined: walk the working set with the
                # instruction's stride (word-aligned).
                stride = static.mem_stride
                if stride == 0:
                    offset = (address * 16) & (static.mem_footprint - 1)
                else:
                    offset = (stride * visit) & (static.mem_footprint - 1)
                mem_address = (
                    0x1000_0000 + static.mem_region * 0x10_0000 + (offset & ~0x3)
                )

            if is_terminator:
                if block.kind is not TerminatorKind.FALL:
                    # _resolve_terminator reads/updates self state (global
                    # history, call stack); sync is not needed because the
                    # localized walk state is block/index only.
                    taken, target_block = self._resolve_terminator(block)
                    block = program.block(target_block)
                else:
                    block = program.block(block.fall_target)
                index = 0
            else:
                index += 1

            append(DynamicRecord(static, taken, target_block, mem_address))
        self._block = block
        self._index = index

    def prune_before(self, stream_index: int) -> None:
        """Drop records older than ``stream_index`` (already committed)."""
        drop = stream_index - self._base
        if drop > 0:
            del self._records[:drop]
            self._base = stream_index

    def data_address(self, static, visit: int, rng: Optional[XorShiftRNG] = None) -> int:
        """Compute the dynamic data address of a memory instruction visit.

        The access walks its working set (``mem_footprint``) with the
        instruction's stride, so cache behaviour follows the footprint:
        small sets live in L1, the streaming tail reaches L2 and memory.
        """
        region_base = 0x1000_0000 + static.mem_region * 0x10_0000
        footprint_mask = static.mem_footprint - 1
        if static.mem_stride == 0:
            offset = (static.address * 16) & footprint_mask
        else:
            offset = (static.mem_stride * visit) & footprint_mask
        return region_base + (offset & ~0x3)

    def _resolve_terminator(self, block) -> Tuple[bool, int]:
        """Decide the outcome and target of a block terminator."""
        if block.kind is TerminatorKind.COND:
            outcome = block.behavior.next_outcome(self.global_history)
            self.global_history = ((self.global_history << 1) | int(outcome)) & _HISTORY_MASK
            target = block.taken_target if outcome else block.fall_target
            return outcome, target
        if block.kind is TerminatorKind.JUMP:
            return True, block.taken_target
        if block.kind is TerminatorKind.CALL:
            self._stack.append(block.fall_target)
            return True, block.taken_target
        if block.kind is TerminatorKind.RET:
            if not self._stack:
                raise ProgramError(f"return with empty call stack in block {block.block_id}")
            return True, self._stack.pop()
        raise ProgramError(f"unexpected terminator kind {block.kind}")


# A wrong-path cursor is (block_id, instr_index, call_stack_tuple, step_count).
WrongPathCursor = Tuple[int, int, Tuple[int, ...], int]


class WrongPathNavigator:
    """Stateless walker serving speculative fetch down mispredicted paths.

    Branch outcomes are a pure hash of (seed, block, step), so revisiting the
    same wrong path yields identical streams (determinism) while distinct
    divergences decorrelate.  Returns with an empty speculative stack jump to
    a hash-chosen block — mirroring the garbage control flow a real processor
    chases down the wrong path.
    """

    def __init__(self, program: Program, seed: int) -> None:
        self.program = program
        self._blocks = program.blocks
        self._seed = derive_seed(seed, "wrongpath")

    def start_cursor(self, block_id: int, salt: int) -> WrongPathCursor:
        """Cursor for entering a wrong path at the top of ``block_id``."""
        return (block_id, 0, (), salt & 0xFFFF)

    def fetch_one(self, cursor: WrongPathCursor):
        """Return (static, taken, target_block, next_cursor, mem_address).

        ``taken``/``target_block`` describe the *actual* outcome along this
        wrong path (what the branch will resolve to if it executes before
        the path is squashed).
        """
        block_id, index, stack, step = cursor
        blocks = self._blocks
        block = blocks[block_id]
        instructions = block.instructions
        hops = 0
        while not instructions:
            block = blocks[block.fall_target]
            instructions = block.instructions
            block_id, index = block.block_id, 0
            hops += 1
            if hops > len(blocks):
                raise ProgramError("cycle of empty fall-through blocks")
        static = instructions[index]
        is_terminator = index == len(instructions) - 1

        taken = False
        target_block = -1
        mem_address = 0
        if static.is_mem:
            mem_address = self._wrong_data_address(static, step)

        if not is_terminator:
            next_cursor = (block_id, index + 1, stack, step + 1)
            return static, taken, target_block, next_cursor, mem_address

        taken, target_block, stack = self._resolve_terminator(block, stack, step)
        if block.kind is TerminatorKind.FALL:
            next_block = block.fall_target
        else:
            next_block = target_block
        next_cursor = (next_block, 0, stack, step + 1)
        return static, taken, target_block, next_cursor, mem_address

    def cursor_at(self, block_id: int, stack: Tuple[int, ...], step: int) -> WrongPathCursor:
        """Cursor at the top of a block with an explicit speculative stack."""
        return (block_id, 0, stack, step)

    def _resolve_terminator(self, block, stack: Tuple[int, ...], step: int):
        if block.kind is TerminatorKind.COND:
            outcome = bool(stateless_hash(self._seed, block.block_id, step) & 1)
            target = block.taken_target if outcome else block.fall_target
            return outcome, target, stack
        if block.kind is TerminatorKind.JUMP:
            return True, block.taken_target, stack
        if block.kind is TerminatorKind.CALL:
            if len(stack) < 64:
                stack = stack + (block.fall_target,)
            return True, block.taken_target, stack
        if block.kind is TerminatorKind.RET:
            if stack:
                return True, stack[-1], stack[:-1]
            wild = stateless_hash(self._seed, block.block_id, step, 7) % len(self.program.blocks)
            return True, wild, stack
        if block.kind is TerminatorKind.FALL:
            return False, block.fall_target, stack
        raise ProgramError(f"unexpected terminator kind {block.kind}")

    # Wrong-path accesses scatter over the whole 1 MB region, not the
    # instruction's own working set: down a wrong path the address register
    # holds stale or garbage values, so speculative loads *pollute* the
    # caches (the paper's §3) instead of conveniently prefetching the lines
    # the true path is about to touch.
    _WRONG_PATH_SPAN = 0x10_0000

    def _wrong_data_address(self, static, step: int) -> int:
        region_base = 0x1000_0000 + static.mem_region * 0x10_0000
        offset = stateless_hash(self._seed, static.address, step) & (
            self._WRONG_PATH_SPAN - 1
        )
        return region_base + (offset & ~0x3)
