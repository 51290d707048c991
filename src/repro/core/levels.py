"""Bandwidth throttle levels (paper §4.1).

Fetch/decode bandwidth reduction is implemented by "alternating full
activity cycles with stalled cycles": half bandwidth = one active cycle in
two, quarter = one in four, stall = none.  Each level's schedule is a
4-cycle wheel mask (:data:`ACTIVE_WHEEL_MASKS`); the throttler, the
stage scheduler and the SMT fetch policy test a cycle against it, and
:func:`next_wheel_active` finds a level's next active cycle for the
cycle skipper.
"""

from __future__ import annotations

import enum

# Every period divides 4, so each level's schedule is exactly a 4-cycle
# wheel: bit ``cycle & 3`` of the mask answers "active this cycle?".  The
# pipeline consults the schedule every cycle for every armed heuristic —
# a bitmask lookup instead of a modulo keeps it off the profile.
# Index by ``int(level)``: FULL, HALF (cycles 0 and 2), QUARTER (cycle 0),
# STALL.
ACTIVE_WHEEL_MASKS = (0b1111, 0b0101, 0b0001, 0b0000)

# Sentinel cycle for "no active cycle without an intervening event": far
# beyond any reachable simulation cycle, so ``min`` arithmetic over
# next-event candidates needs no special casing.  A STALL wheel (mask 0)
# reopens only when a controller hook fires, never by the clock alone.
NEVER_ACTIVE = 1 << 62


def next_wheel_active(mask: int, cycle: int) -> int:
    """First cycle ``>= cycle`` whose 4-cycle wheel phase is active.

    ``mask`` is an ``ACTIVE_WHEEL_MASKS``-style bitmask (bit ``c & 3``
    set means cycle ``c`` is active).  Returns :data:`NEVER_ACTIVE` for
    an empty mask — the schedule alone never reopens.  O(1): at most
    four phase probes.
    """
    if mask == 0:
        return NEVER_ACTIVE
    offset = 0
    while not (mask >> ((cycle + offset) & 3)) & 1:
        offset += 1
    return cycle + offset


@enum.unique
class BandwidthLevel(enum.IntEnum):
    """Stage bandwidth, ordered by increasing aggressiveness."""

    FULL = 0  # every cycle
    HALF = 1  # 1 active cycle in 2
    QUARTER = 2  # 1 active cycle in 4
    STALL = 3  # no active cycles

    def describe(self) -> str:
        """Compact label used by experiment names (fetch/2, fetch=0...)."""
        return {"FULL": "/1", "HALF": "/2", "QUARTER": "/4", "STALL": "=0"}[self.name]
