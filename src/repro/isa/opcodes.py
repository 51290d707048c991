"""Opcodes and operation classes of the synthetic ISA.

Latencies follow the simulated machine of the paper's Table 3 (an Alpha-like
8-wide core): single-cycle integer ALU ops, 3-cycle integer multiply, loads
take one cycle of address generation plus the data-cache access, and the few
floating-point ops SPECint workloads contain use modestly pipelined units.
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Functional-unit class an instruction issues to."""

    INT_ALU = "int_alu"
    INT_MULT = "int_mult"
    MEM_READ = "mem_read"
    MEM_WRITE = "mem_write"
    FP_ALU = "fp_alu"
    FP_MULT = "fp_mult"
    BRANCH = "branch"
    NOP = "nop"


class Opcode(enum.Enum):
    """The instruction set.  Deliberately small but covering every OpClass."""

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality.  It is computed in C, where Enum's default hashes
    # the member name in Python on every dict lookup, and program generation
    # looks up ``OPCODE_META`` once per static instruction.
    __hash__ = object.__hash__

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHIFT = "shift"
    CMP = "cmp"
    MOV = "mov"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    FADD = "fadd"
    FMUL = "fmul"
    BR_COND = "br_cond"
    BR_UNCOND = "br_uncond"
    CALL = "call"
    RET = "ret"
    NOP = "nop"


_OPCODE_CLASS = {
    Opcode.ADD: OpClass.INT_ALU,
    Opcode.SUB: OpClass.INT_ALU,
    Opcode.AND: OpClass.INT_ALU,
    Opcode.OR: OpClass.INT_ALU,
    Opcode.XOR: OpClass.INT_ALU,
    Opcode.SHIFT: OpClass.INT_ALU,
    Opcode.CMP: OpClass.INT_ALU,
    Opcode.MOV: OpClass.INT_ALU,
    Opcode.MUL: OpClass.INT_MULT,
    Opcode.DIV: OpClass.INT_MULT,
    Opcode.LOAD: OpClass.MEM_READ,
    Opcode.STORE: OpClass.MEM_WRITE,
    Opcode.FADD: OpClass.FP_ALU,
    Opcode.FMUL: OpClass.FP_MULT,
    Opcode.BR_COND: OpClass.BRANCH,
    Opcode.BR_UNCOND: OpClass.BRANCH,
    Opcode.CALL: OpClass.BRANCH,
    Opcode.RET: OpClass.BRANCH,
    Opcode.NOP: OpClass.NOP,
}

# Execution latency in cycles, excluding cache access time for memory ops.
_OPCODE_LATENCY = {
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.SHIFT: 1,
    Opcode.CMP: 1,
    Opcode.MOV: 1,
    Opcode.MUL: 3,
    Opcode.DIV: 12,
    Opcode.LOAD: 1,
    Opcode.STORE: 1,
    Opcode.FADD: 2,
    Opcode.FMUL: 4,
    Opcode.BR_COND: 1,
    Opcode.BR_UNCOND: 1,
    Opcode.CALL: 1,
    Opcode.RET: 1,
    Opcode.NOP: 1,
}

BRANCH_OPCODES = frozenset(
    {Opcode.BR_COND, Opcode.BR_UNCOND, Opcode.CALL, Opcode.RET}
)
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE})

# ----------------------------------------------------------------------
# Issue-slot codes: small-integer functional-unit classes for the hot path
# ----------------------------------------------------------------------
#
# The per-cycle select loop claims issue slots millions of times per run;
# indexing a list with a small int avoids hashing an :class:`OpClass` enum
# member on every claim.  Branches resolve on the integer ALUs, so they
# share code 0; loads and stores keep distinct codes (loads must also check
# for a free MSHR) but share the memory ports inside the pool.

FU_INT_ALU = 0
FU_INT_MULT = 1
FU_MEM_READ = 2
FU_MEM_WRITE = 3
FU_FP_ALU = 4
FU_FP_MULT = 5
FU_NOP = 6
NUM_FU_CODES = 7

_CLASS_FU_CODE = {
    OpClass.INT_ALU: FU_INT_ALU,
    OpClass.BRANCH: FU_INT_ALU,
    OpClass.INT_MULT: FU_INT_MULT,
    OpClass.MEM_READ: FU_MEM_READ,
    OpClass.MEM_WRITE: FU_MEM_WRITE,
    OpClass.FP_ALU: FU_FP_ALU,
    OpClass.FP_MULT: FU_FP_MULT,
    OpClass.NOP: FU_NOP,
}


def fu_code_of(op_class: OpClass) -> int:
    """The issue-slot code of a functional-unit class."""
    return _CLASS_FU_CODE[op_class]


# Fused per-opcode metadata: (op_class, latency, fu_code, is_branch,
# is_cond_branch, is_load, is_store, is_mem).  StaticInstruction
# construction is a hot loop of program generation (tens of thousands of
# instances per benchmark); one dict lookup replaces five.
OPCODE_META = {
    opcode: (
        _OPCODE_CLASS[opcode],
        _OPCODE_LATENCY[opcode],
        _CLASS_FU_CODE[_OPCODE_CLASS[opcode]],
        opcode in BRANCH_OPCODES,
        opcode is Opcode.BR_COND,
        opcode is Opcode.LOAD,
        opcode is Opcode.STORE,
        opcode in MEMORY_OPCODES,
    )
    for opcode in Opcode
}
