"""Architectural register conventions of the synthetic ISA.

A 64-register flat integer file (Alpha-like) is more than enough for the
synthetic programs; two registers are given conventional roles so generated
code looks plausible (a hard-wired zero and a stack pointer).
"""

from __future__ import annotations

NUM_ARCH_REGS = 64

REG_ZERO = 0
REG_SP = 1

# Registers the program generator may allocate as ordinary scratch values.
FIRST_SCRATCH_REG = 2
