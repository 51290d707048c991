"""Issue queue: wakeup and select with the no-select bit.

Dispatch inserts renamed instructions with their pending source tags;
completion broadcasts a tag, waking dependents (CAM-style wakeup, the left
half of the paper's Figure 2).  Select walks ready instructions oldest
first and issues up to the machine width, honouring functional-unit slots
and asking the speculation controller whether an instruction's request
signal is suppressed — the paper's no-select bit (Figure 2 right).

The queue is plain public state.  Dispatch lives in
:class:`~repro.pipeline.stages.decode_rename.DecodeRenameStage`, select
in :class:`~repro.pipeline.stages.select_issue.SelectIssueStage` and
wakeup in :class:`~repro.pipeline.stages.execute_writeback.ExecuteWritebackStage`,
each inlined into its stage loop; this class keeps only
:meth:`squash_younger` (branch recovery).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.isa.instruction import DynamicInstruction


class IssueQueue:
    """Out-of-order window between dispatch and execute."""

    __slots__ = ("size", "count", "ready_list", "waiters", "ready_sorted")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SimulationError("issue queue size must be positive")
        self.size = size
        # Occupancy: dispatched, unissued instructions.
        self.count = 0
        # Ready, unissued instructions in arrival (~program) order.
        self.ready_list: List[DynamicInstruction] = []
        # True while ``ready_list`` is known to be in ascending fetch
        # order.  Dispatch appends are seq-monotonic and select rebuilds
        # the list in sorted order, so only a wakeup (which may ready an
        # *older* waiter) can unsort it — select then skips its per-cycle
        # sort whenever the flag still holds.
        self.ready_sorted = True
        # Tag -> instructions waiting on it.
        self.waiters: Dict[int, List[DynamicInstruction]] = {}

    def squash_younger(self, seq: int) -> None:
        """Drop every ready instruction younger than ``seq``.

        Entries are removed lazily from the waiter lists (their ``squashed``
        flag makes wakeup skip them); the recovery path repairs the
        occupancy count.
        """
        self.ready_list = [
            instruction
            for instruction in self.ready_list
            if instruction.seq <= seq and not instruction.squashed
        ]
