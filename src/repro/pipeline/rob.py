"""Reorder buffer: a bounded FIFO of in-flight instructions."""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.errors import SimulationError
from repro.isa.instruction import DynamicInstruction


class ReorderBuffer:
    """In-order window of every renamed, uncommitted instruction."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SimulationError("ROB size must be positive")
        self.size = size
        # The in-order window itself.  Public: the dispatch and commit
        # stages append and pop it directly (the per-cycle hot path), with
        # the capacity check done at the call site.
        self.entries: Deque[DynamicInstruction] = deque()

    def squash_younger(self, seq: int) -> List[DynamicInstruction]:
        """Remove and return every instruction younger than ``seq``."""
        squashed: List[DynamicInstruction] = []
        entries = self.entries
        while entries and entries[-1].seq > seq:
            squashed.append(entries.pop())
        return squashed
