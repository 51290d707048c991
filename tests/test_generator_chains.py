"""Condition-chain and serial-chain structure of generated programs."""

import pytest

from repro.errors import ProgramError
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_ARCH_REGS
from repro.program.cfg import TerminatorKind
from repro.program.generator import ProgramGenerator, ProgramShape

SERIAL_REG = NUM_ARCH_REGS - 1


def _generate(seed=7, **overrides):
    shape = ProgramShape(**overrides) if overrides else ProgramShape()
    return ProgramGenerator(shape, seed).generate(), shape


def _cond_reg_range(shape):
    low = NUM_ARCH_REGS - 1 - shape.hard_chain_registers
    return range(low, NUM_ARCH_REGS - 1)


def test_hard_blocks_exist_with_default_shape():
    program, shape = _generate()
    cond_regs = set(_cond_reg_range(shape))
    chained = [
        block
        for block in program.blocks
        if block.kind is TerminatorKind.COND
        and block.instructions[-1].sources
        and block.instructions[-1].sources[0] in cond_regs
    ]
    assert chained, "expected some hard branches with condition chains"


def test_condition_chain_load_feeds_the_branch():
    program, shape = _generate()
    cond_regs = set(_cond_reg_range(shape))
    for block in program.blocks:
        if block.kind is not TerminatorKind.COND:
            continue
        branch = block.instructions[-1]
        if not branch.sources or branch.sources[0] not in cond_regs:
            continue
        reg = branch.sources[0]
        writers = [
            instr
            for instr in block.instructions[:-1]
            if instr.dest == reg
        ]
        assert writers, f"block {block.block_id}: no writer of cond reg {reg}"
        assert all(w.opcode is Opcode.LOAD for w in writers)
        assert all(
            w.mem_footprint == shape.hard_chain_footprint for w in writers
        )


def test_hard_chain_zero_disables_condition_chains():
    program, shape = _generate(hard_branch_chain=0.0)
    cond_regs = set(_cond_reg_range(shape))
    for block in program.blocks:
        for instr in block.instructions:
            assert instr.dest not in cond_regs


def test_ordinary_destinations_avoid_reserved_registers():
    program, shape = _generate()
    reserved = set(_cond_reg_range(shape))
    for block in program.blocks:
        for instr in block.instructions:
            if instr.dest in reserved:
                # Only condition-chain loads may write the reserved regs.
                assert instr.opcode is Opcode.LOAD
                assert instr.mem_footprint == shape.hard_chain_footprint


def test_serial_chain_restart_breaks_self_dependence():
    program, shape = _generate(serial_chain_fraction=0.8, serial_chain_restart=0.5)
    links = restarts = 0
    for block in program.blocks:
        for instr in block.instructions:
            if instr.dest == SERIAL_REG and not instr.is_branch:
                if instr.sources and instr.sources[0] == SERIAL_REG:
                    links += 1
                else:
                    restarts += 1
    assert links > 0
    assert restarts > 0


def test_no_restarts_when_restart_probability_zero():
    program, _ = _generate(serial_chain_fraction=0.8, serial_chain_restart=0.0)
    for block in program.blocks:
        for instr in block.instructions:
            if (
                instr.dest == SERIAL_REG
                and not instr.is_branch
                and instr.opcode is not Opcode.STORE
            ):
                # Every chain op reads the chain register (the induction
                # head keeps its private chain and also satisfies this).
                if instr.sources:
                    sources_ok = instr.sources[0] == SERIAL_REG
                    assert sources_ok or instr.dest != SERIAL_REG


def test_hard_chain_footprint_must_be_power_of_two():
    with pytest.raises(ProgramError):
        ProgramShape(hard_chain_footprint=3000).validate()


def test_hard_branch_chain_must_be_probability():
    with pytest.raises(ProgramError):
        ProgramShape(hard_branch_chain=1.5).validate()


def test_hard_chain_registers_must_be_positive():
    with pytest.raises(ProgramError):
        ProgramShape(hard_chain_registers=0).validate()


def test_generation_is_deterministic_with_chains():
    a, _ = _generate(seed=99)
    b, _ = _generate(seed=99)
    for block_a, block_b in zip(a.blocks, b.blocks):
        assert len(block_a.instructions) == len(block_b.instructions)
        for ia, ib in zip(block_a.instructions, block_b.instructions):
            assert ia.opcode is ib.opcode
            assert ia.dest == ib.dest
            assert ia.sources == ib.sources
            assert ia.mem_footprint == ib.mem_footprint


def test_chain_rewrites_preserve_instruction_counts():
    """Condition chains rewrite in place: block sizes (and hence code
    addresses, and hence the calibrated gshare indexing) never change."""
    with_chains, _ = _generate(seed=5, hard_branch_chain=1.0)
    without, _ = _generate(seed=5, hard_branch_chain=0.0)
    assert len(with_chains.blocks) == len(without.blocks)
    for a, b in zip(with_chains.blocks, without.blocks):
        assert len(a.instructions) == len(b.instructions)
        assert a.address == b.address
