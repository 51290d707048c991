"""A small RISC-like synthetic ISA for the simulator.

The ISA carries just enough structure to drive an out-of-order timing model:
operation classes (which functional unit, what latency), register operands
(for dependence tracking through rename), and control-flow terminators
(branches, jumps, calls, returns).
"""

from repro.isa.instruction import DynamicInstruction, StaticInstruction
from repro.isa.opcodes import (
    BRANCH_OPCODES,
    MEMORY_OPCODES,
    Opcode,
    OpClass,
)
from repro.isa.registers import NUM_ARCH_REGS, REG_SP, REG_ZERO

__all__ = [
    "Opcode",
    "OpClass",
    "BRANCH_OPCODES",
    "MEMORY_OPCODES",
    "StaticInstruction",
    "DynamicInstruction",
    "NUM_ARCH_REGS",
    "REG_ZERO",
    "REG_SP",
]
