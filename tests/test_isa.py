"""Tests for the synthetic ISA layer."""

from repro.isa.instruction import DynamicInstruction, StaticInstruction
from repro.isa.opcodes import (
    BRANCH_OPCODES,
    MEMORY_OPCODES,
    Opcode,
    OPCODE_META,
    OpClass,
)
from repro.isa.registers import NUM_ARCH_REGS, REG_SP, REG_ZERO


def test_every_opcode_has_class_and_latency():
    # OPCODE_META is the table StaticInstruction reads both from.
    for opcode in Opcode:
        op_class, latency = OPCODE_META[opcode][:2]
        assert isinstance(op_class, OpClass)
        assert latency >= 1


def test_branch_opcode_set():
    assert Opcode.BR_COND in BRANCH_OPCODES
    assert Opcode.CALL in BRANCH_OPCODES
    assert Opcode.LOAD not in BRANCH_OPCODES


def test_memory_opcode_set():
    assert MEMORY_OPCODES == {Opcode.LOAD, Opcode.STORE}


def test_mult_slower_than_alu():
    def latency(opcode):
        return StaticInstruction(0, opcode, dest=3, sources=(1, 2)).latency

    assert latency(Opcode.MUL) > latency(Opcode.ADD)
    assert latency(Opcode.DIV) > latency(Opcode.MUL)


def test_static_instruction_branch_flags():
    branch = StaticInstruction(0x1000, Opcode.BR_COND, sources=(3,))
    assert branch.is_branch and branch.is_cond_branch
    jump = StaticInstruction(0x1004, Opcode.BR_UNCOND)
    assert jump.is_branch and not jump.is_cond_branch
    add = StaticInstruction(0x1008, Opcode.ADD, dest=5, sources=(1, 2))
    assert not add.is_branch


def test_dynamic_instruction_defaults():
    static = StaticInstruction(0x2000, Opcode.LOAD, dest=7, sources=(2,))
    dyn = DynamicInstruction(42, static)
    assert dyn.seq == 42
    assert dyn.static.address == 0x2000
    assert dyn.is_load and not dyn.is_store
    assert not dyn.issued and not dyn.completed and not dyn.squashed
    assert dyn.fetch_cycle == -1
    assert dyn.phys_dest == -1


def test_dynamic_instruction_branch_only_slots():
    # ``pc`` (and the other control-flow slots) exist only on branches —
    # the packet-friendly lazily-populated slot contract.
    branch = DynamicInstruction(1, StaticInstruction(0x3000, Opcode.BR_COND))
    assert branch.pc == 0x3000
    assert branch.predicted_taken is False
    load = DynamicInstruction(2, StaticInstruction(0x2000, Opcode.LOAD, dest=7))
    assert not hasattr(load, "pc")
    # Later stage cycles live in the pipetrace recorder, not on the
    # instruction: only the fetch cycle is a slot.
    for name in ("decode_cycle", "rename_cycle", "issue_cycle",
                 "complete_cycle", "commit_cycle"):
        assert name not in DynamicInstruction.__slots__
    assert "fetch_cycle" in DynamicInstruction.__slots__


def test_dynamic_instruction_properties_delegate():
    static = StaticInstruction(0x2000, Opcode.STORE, sources=(2, 3))
    dyn = DynamicInstruction(1, static)
    assert dyn.opcode is Opcode.STORE
    assert dyn.op_class is OpClass.MEM_WRITE
    assert dyn.is_store


def test_dynamic_repr_mentions_squash_state():
    static = StaticInstruction(0x2000, Opcode.ADD, dest=4)
    dyn = DynamicInstruction(1, static)
    dyn.on_wrong_path = True
    dyn.squashed = True
    text = repr(dyn)
    assert "wrong-path" in text and "squashed" in text


def test_register_conventions():
    assert 0 <= REG_ZERO < NUM_ARCH_REGS
    assert 0 <= REG_SP < NUM_ARCH_REGS
    assert REG_ZERO != REG_SP
