"""Control-flow graph representation of a synthetic program.

A program is a list of :class:`BasicBlock`.  Each block carries straight-line
instructions and ends with a terminator: a conditional branch, an
unconditional jump, a call, a return, or a plain fall-through (no control
instruction at all, execution continues at ``fall_target``).

Block addresses are laid out contiguously (4 bytes per instruction) so the
instruction cache sees a realistic address stream, including wrong-path
pollution when speculative fetch wanders into code the true path never
touches.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.errors import ProgramError
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import Opcode
from repro.program.behavior import BranchBehavior

INSTRUCTION_BYTES = 4


class TerminatorKind(enum.Enum):
    """How control leaves a basic block."""

    COND = "cond"  # conditional branch: taken_target / fall_target
    JUMP = "jump"  # unconditional direct jump: taken_target
    CALL = "call"  # call taken_target (function entry); continue at fall_target
    RET = "ret"  # return to the caller's continuation block
    FALL = "fall"  # no control instruction; continue at fall_target


# The control instruction that ends a block of each kind (FALL has none).
TERMINATOR_OPCODES = {
    TerminatorKind.COND: Opcode.BR_COND,
    TerminatorKind.JUMP: Opcode.BR_UNCOND,
    TerminatorKind.CALL: Opcode.CALL,
    TerminatorKind.RET: Opcode.RET,
}


class BasicBlock:
    """One basic block: straight-line instructions plus a terminator."""

    __slots__ = (
        "block_id",
        "function_id",
        "address",
        "instructions",
        "kind",
        "taken_target",
        "fall_target",
        "behavior",
    )

    def __init__(
        self,
        block_id: int,
        function_id: int,
        kind: TerminatorKind,
        taken_target: int = -1,
        fall_target: int = -1,
        behavior: Optional[BranchBehavior] = None,
    ) -> None:
        self.block_id = block_id
        self.function_id = function_id
        self.address = 0  # assigned by Program.finalize()
        self.instructions: List[StaticInstruction] = []
        self.kind = kind
        self.taken_target = taken_target
        self.fall_target = fall_target
        self.behavior = behavior

    @property
    def terminator(self) -> Optional[StaticInstruction]:
        """The control instruction ending the block, if any."""
        if self.kind is TerminatorKind.FALL:
            return None
        if not self.instructions:
            raise ProgramError(f"block {self.block_id} has no terminator instruction")
        return self.instructions[-1]

    def validate(self, num_blocks: int) -> None:
        """Check structural invariants; raise ProgramError on violation.

        A block's only control instruction is its terminator, in its
        last slot, and it matches the block's kind: the instruction
        supply walks whole blocks and ends a packet only there.
        """
        if not self.instructions and self.kind is not TerminatorKind.FALL:
            raise ProgramError(f"block {self.block_id}: empty block with terminator {self.kind}")
        for slot, instruction in enumerate(self.instructions[:-1]):
            if instruction.is_branch:
                raise ProgramError(
                    f"block {self.block_id}: control instruction "
                    f"{instruction.opcode.value} in slot {slot}, before the last"
                )
        if self.instructions:
            last = self.instructions[-1]
            opcode = TERMINATOR_OPCODES.get(self.kind)
            if opcode is None and last.is_branch:
                raise ProgramError(
                    f"block {self.block_id}: FALL block ends in control "
                    f"instruction {last.opcode.value}"
                )
            if opcode is not None and last.opcode is not opcode:
                raise ProgramError(
                    f"block {self.block_id}: {self.kind.value} block must end "
                    f"in {opcode.value}, not {last.opcode.value}"
                )
        if self.kind is TerminatorKind.COND:
            if self.behavior is None:
                raise ProgramError(f"block {self.block_id}: conditional branch without behaviour")
            if not (0 <= self.taken_target < num_blocks):
                raise ProgramError(f"block {self.block_id}: bad taken target {self.taken_target}")
            if not (0 <= self.fall_target < num_blocks):
                raise ProgramError(f"block {self.block_id}: bad fall target {self.fall_target}")
        elif self.kind in (TerminatorKind.JUMP, TerminatorKind.CALL):
            if not (0 <= self.taken_target < num_blocks):
                raise ProgramError(f"block {self.block_id}: bad jump target {self.taken_target}")
            if self.kind is TerminatorKind.CALL and not (0 <= self.fall_target < num_blocks):
                raise ProgramError(f"block {self.block_id}: call without continuation")
        elif self.kind is TerminatorKind.FALL:
            if not (0 <= self.fall_target < num_blocks):
                raise ProgramError(f"block {self.block_id}: bad fall target {self.fall_target}")

    def __repr__(self) -> str:
        return (
            f"BasicBlock(id={self.block_id}, fn={self.function_id}, "
            f"{len(self.instructions)} instrs, {self.kind.value})"
        )


class Program:
    """A finalized synthetic program: blocks, layout and lookups."""

    def __init__(self, blocks: List[BasicBlock], entry_block: int, name: str = "anon") -> None:
        if not blocks:
            raise ProgramError("a program needs at least one block")
        if not (0 <= entry_block < len(blocks)):
            raise ProgramError(f"bad entry block {entry_block}")
        self.blocks = blocks
        self.entry_block = entry_block
        self.name = name
        self._block_by_address: Dict[int, int] = {}
        self._finalized = False

    def finalize(self, base_address: int = 0x1000) -> None:
        """Assign addresses, validate every block, build lookup tables."""
        address = base_address
        for block in self.blocks:
            block.validate(len(self.blocks))
            block.address = address
            self._block_by_address[address] = block.block_id
            for offset, instruction in enumerate(block.instructions):
                instruction.address = address + offset * INSTRUCTION_BYTES
                instruction.block_id = block.block_id
            # FALL blocks may be empty; still give them a distinct address.
            address += max(1, len(block.instructions)) * INSTRUCTION_BYTES
        self.code_bytes = address - base_address
        self._finalized = True

    @property
    def finalized(self) -> bool:
        """True once finalize() assigned addresses and validated blocks."""
        return self._finalized

    def block(self, block_id: int) -> BasicBlock:
        """Return a block by id."""
        return self.blocks[block_id]

    def block_at_address(self, address: int) -> Optional[BasicBlock]:
        """Return the block starting exactly at ``address``, if any."""
        block_id = self._block_by_address.get(address)
        return None if block_id is None else self.blocks[block_id]

    def reset_behaviors(self) -> None:
        """Reset every branch behaviour so the program can be re-run."""
        for block in self.blocks:
            if block.behavior is not None:
                block.behavior.reset()

    def static_instruction_count(self) -> int:
        """Total number of static instructions in the program text."""
        return sum(len(block.instructions) for block in self.blocks)

    def conditional_branch_count(self) -> int:
        """Number of static conditional branches."""
        return sum(1 for block in self.blocks if block.kind is TerminatorKind.COND)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self.blocks)} blocks, "
            f"{self.static_instruction_count()} instrs)"
        )
