"""Synthetic programs: control-flow graphs with behavioural branch models.

A :class:`~repro.program.cfg.Program` is a set of basic blocks whose
conditional branches carry *behaviour models* (loops, biased branches,
patterns, correlated branches).  The :class:`~repro.program.walker.TruePathOracle`
lazily unrolls the architecturally correct dynamic instruction stream, while
:class:`~repro.program.walker.WrongPathNavigator` walks mispredicted paths
without perturbing true-path state.  These walkers are the reference the
pipeline's front end (:class:`~repro.frontend.supply.CompiledSupply`, which
serves the same streams a block at a time) is parity-tested against.
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
from repro.program.walker import DynamicRecord, TruePathOracle, WrongPathNavigator

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
    "TruePathOracle",
    "WrongPathNavigator",
    "DynamicRecord",
]
