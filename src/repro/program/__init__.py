"""Synthetic programs: control-flow graphs with behavioural branch models.

A :class:`~repro.program.cfg.Program` is a set of basic blocks whose
conditional branches carry *behaviour models* (loops, biased branches,
patterns, correlated branches).  The pipeline's front end walks it through
:class:`~repro.frontend.supply.CompiledSupply`, which serves the true path
and mispredicted paths a block at a time.
"""

from repro.program.behavior import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.program.cfg import BasicBlock, Program, TerminatorKind
from repro.program.generator import ProgramGenerator

__all__ = [
    "BranchBehavior",
    "BiasedBehavior",
    "LoopBehavior",
    "PatternBehavior",
    "CorrelatedBehavior",
    "BasicBlock",
    "Program",
    "TerminatorKind",
    "ProgramGenerator",
]
