"""Load/store queue: occupancy tracking for the Table-3 64-entry LSQ.

Memory disambiguation is optimistic (loads never wait on older stores);
the LSQ's simulated role is the structural hazard at dispatch and the
activity counts the power model's ``lsq`` block consumes.
"""

from __future__ import annotations

from repro.errors import SimulationError


class LoadStoreQueue:
    """Bounded set of in-flight memory operations."""

    __slots__ = ("size", "occupied")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SimulationError("LSQ size must be positive")
        self.size = size
        # Occupancy; public so the dispatch stage allocates by bumping it
        # after its own capacity check.
        self.occupied = 0

    def release(self) -> None:
        """Free an entry (commit of a memory op)."""
        if self.occupied <= 0:
            raise SimulationError("release from an empty LSQ")
        self.occupied -= 1
