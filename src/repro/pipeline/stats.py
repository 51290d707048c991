"""Per-run simulation statistics."""

from __future__ import annotations

from repro.confidence.metrics import ConfidenceMatrix


class SimStats:
    """Counters accumulated during one measured simulation window.

    Slotted: several counters are incremented every cycle by the stage
    kernel, and slot stores skip the instance-dict machinery.
    """

    __slots__ = (
        "cycles",
        "fetched",
        "fetched_wrong_path",
        "decoded",
        "renamed",
        "issued",
        "issued_wrong_path",
        "committed",
        "squashed",
        "cond_branches_fetched",
        "cond_branches_committed",
        "mispredictions_committed",
        "squashes",
        "fetch_throttled_cycles",
        "decode_throttled_cycles",
        "selection_blocked",
        "icache_stall_cycles",
        "redirect_stall_cycles",
        "confidence",
    )

    def __init__(self) -> None:
        self.cycles = 0
        # Instruction flow.
        self.fetched = 0
        self.fetched_wrong_path = 0
        self.decoded = 0
        self.renamed = 0
        self.issued = 0
        self.issued_wrong_path = 0
        self.committed = 0
        self.squashed = 0
        # Branches.
        self.cond_branches_fetched = 0
        self.cond_branches_committed = 0
        self.mispredictions_committed = 0
        self.squashes = 0
        # Throttling.
        self.fetch_throttled_cycles = 0
        self.decode_throttled_cycles = 0
        self.selection_blocked = 0
        # Fetch stalls.
        self.icache_stall_cycles = 0
        self.redirect_stall_cycles = 0
        # Confidence quality.
        self.confidence = ConfidenceMatrix()

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def branch_miss_rate(self) -> float:
        """Misprediction rate over committed conditional branches."""
        if self.cond_branches_committed == 0:
            return 0.0
        return self.mispredictions_committed / self.cond_branches_committed

    @property
    def wrong_path_fetch_fraction(self) -> float:
        """Fraction of fetched instructions that were wrong-path."""
        return self.fetched_wrong_path / self.fetched if self.fetched else 0.0
