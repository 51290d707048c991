"""Tests for the CFG representation and its invariants."""

import pytest

from repro.errors import ProgramError
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import Opcode
from repro.program.behavior import BiasedBehavior
from repro.program.cfg import INSTRUCTION_BYTES, BasicBlock, Program, TerminatorKind


def _block_with(block_id, kind, n_body=2, **kwargs):
    block = BasicBlock(block_id, 0, kind, **kwargs)
    for _ in range(n_body):
        block.instructions.append(StaticInstruction(0, Opcode.ADD, dest=3, sources=(2,)))
    terminator = {
        TerminatorKind.COND: Opcode.BR_COND,
        TerminatorKind.JUMP: Opcode.BR_UNCOND,
        TerminatorKind.CALL: Opcode.CALL,
        TerminatorKind.RET: Opcode.RET,
    }.get(kind)
    if terminator:
        block.instructions.append(StaticInstruction(0, terminator, sources=(2,) if kind is TerminatorKind.COND else ()))
    return block


def _two_block_program():
    b0 = _block_with(0, TerminatorKind.JUMP, taken_target=1)
    b1 = _block_with(1, TerminatorKind.JUMP, taken_target=0)
    program = Program([b0, b1], entry_block=0, name="p")
    program.finalize()
    return program


def test_finalize_assigns_contiguous_addresses():
    program = _two_block_program()
    b0, b1 = program.blocks
    assert b0.address == 0x1000
    assert b1.address == b0.address + len(b0.instructions) * INSTRUCTION_BYTES
    for offset, instr in enumerate(b0.instructions):
        assert instr.address == b0.address + offset * INSTRUCTION_BYTES
        assert instr.block_id == 0


def test_counts():
    program = _two_block_program()
    count = sum(len(b.instructions) for b in program.blocks)
    assert repr(program).endswith(f"{count} instrs)")


def test_cond_block_requires_behavior():
    bad = _block_with(0, TerminatorKind.COND, taken_target=0, fall_target=0)
    with pytest.raises(ProgramError):
        Program([bad], entry_block=0).finalize()


def test_cond_block_with_behavior_validates():
    block = _block_with(
        0, TerminatorKind.COND, taken_target=0, fall_target=0,
        behavior=BiasedBehavior(0.5, seed=1),
    )
    program = Program([block], entry_block=0)
    program.finalize()
    assert program.finalized


def test_bad_targets_rejected():
    block = _block_with(0, TerminatorKind.JUMP, taken_target=7)
    with pytest.raises(ProgramError):
        Program([block], entry_block=0).finalize()


def test_call_requires_continuation():
    block = _block_with(0, TerminatorKind.CALL, taken_target=0, fall_target=-1)
    with pytest.raises(ProgramError):
        Program([block], entry_block=0).finalize()


def test_empty_program_rejected():
    with pytest.raises(ProgramError):
        Program([], entry_block=0)


def test_bad_entry_rejected():
    block = _block_with(0, TerminatorKind.JUMP, taken_target=0)
    with pytest.raises(ProgramError):
        Program([block], entry_block=3)


def test_reset_behaviors_resets_loop_state(fresh_program):
    # Drain some outcomes, reset, and confirm the stream replays.
    cond_blocks = [b for b in fresh_program.blocks if b.behavior is not None]
    assert cond_blocks
    block = cond_blocks[0]
    first = [block.behavior.next_outcome(0) for _ in range(20)]
    fresh_program.reset_behaviors()
    assert [block.behavior.next_outcome(0) for _ in range(20)] == first


def test_control_instruction_only_in_the_last_slot():
    block = _block_with(0, TerminatorKind.JUMP, taken_target=0)
    block.instructions.insert(0, StaticInstruction(0, Opcode.BR_UNCOND))
    with pytest.raises(ProgramError, match="before the last"):
        Program([block], entry_block=0).finalize()


def test_terminator_matches_block_kind():
    jump_ending_in_load = _block_with(0, TerminatorKind.JUMP, taken_target=0)
    jump_ending_in_load.instructions[-1] = StaticInstruction(
        0, Opcode.LOAD, dest=2, sources=(1,), mem_region=0, mem_stride=4,
        mem_footprint=64,
    )
    with pytest.raises(ProgramError, match="must end in br_uncond"):
        Program([jump_ending_in_load], entry_block=0).finalize()
    fall_ending_in_call = _block_with(0, TerminatorKind.FALL, fall_target=0)
    fall_ending_in_call.instructions.append(StaticInstruction(0, Opcode.CALL))
    with pytest.raises(ProgramError, match="FALL block ends in control"):
        Program([fall_ending_in_call], entry_block=0).finalize()
