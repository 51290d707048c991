"""Return address stack with checkpoint/restore for squash recovery.

The RAS is updated speculatively at fetch (push on call, pop on return).
Each fetched branch checkpoints (top-of-stack pointer, top value) so a
squash can undo wrong-path pushes/pops — the standard fix for RAS
corruption by speculative fetch.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError

RASCheckpoint = Tuple[int, int]


class ReturnAddressStack:
    """Fixed-depth circular return-address stack."""

    def __init__(self, depth: int = 32) -> None:
        if depth <= 0:
            raise ConfigurationError(f"RAS depth must be positive, got {depth}")
        self.depth = depth
        self._stack = [0] * depth
        self._top = 0  # index of the next free slot

    def push(self, return_address: int) -> None:
        """Push the return address of a fetched call."""
        self._stack[self._top % self.depth] = return_address
        self._top += 1

    def pop(self) -> int:
        """Pop the predicted target of a fetched return (0 if empty)."""
        if self._top == 0:
            return 0
        self._top -= 1
        return self._stack[self._top % self.depth]

    def checkpoint(self) -> RASCheckpoint:
        """Capture state for branch-squash recovery."""
        top = self._top
        if top == 0:
            return (0, 0)
        return (top, self._stack[(top - 1) % self.depth])

    def restore(self, point: RASCheckpoint) -> None:
        """Undo speculative pushes/pops using a checkpoint."""
        top, top_value = point
        self._top = top
        if top:
            self._stack[(top - 1) % self.depth] = top_value
