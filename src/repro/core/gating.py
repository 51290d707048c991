"""Pipeline Gating (Manne, Klauser & Grunwald, ISCA 1998).

The comparison baseline of the paper: count unresolved low-confidence
branches; while the count reaches the gating threshold, stall fetch
completely.  The paper evaluates it with an 8 KB JRS estimator at MDC
threshold 12 and a gating threshold of 2 (experiments A7/B9/C7).
"""

from __future__ import annotations

from repro.confidence.base import ConfidenceLevel
from repro.core.levels import NEVER_ACTIVE
from repro.core.throttler import SpeculationController
from repro.errors import ConfigurationError
from repro.isa.instruction import DynamicInstruction


class PipelineGatingController(SpeculationController):
    """All-or-nothing fetch gating on outstanding low-confidence branches."""

    name = "pipeline-gating"

    def __init__(self, gating_threshold: int = 2) -> None:
        if gating_threshold < 1:
            raise ConfigurationError(
                f"gating threshold must be >= 1, got {gating_threshold}"
            )
        self.gating_threshold = gating_threshold
        self._outstanding = 0
        self.gated_cycles = 0
        self.triggers = 0

    def on_branch_fetched(
        self, instruction: DynamicInstruction, level: ConfidenceLevel
    ) -> None:
        if level.is_low:
            self._outstanding += 1
            self.triggers += 1
            instruction.throttle_token = "gate"

    def on_branch_resolved(self, instruction: DynamicInstruction) -> None:
        self._drop(instruction)

    def on_branch_squashed(self, instruction: DynamicInstruction) -> None:
        self._drop(instruction)

    def _drop(self, instruction: DynamicInstruction) -> None:
        if instruction.throttle_token == "gate":
            self._outstanding -= 1
            instruction.throttle_token = None

    def fetch_allowed(self, cycle: int) -> bool:
        # Manne et al.: gate while the count *exceeds* the threshold.
        gated = self._outstanding > self.gating_threshold
        if gated:
            self.gated_cycles += 1
        return not gated

    def next_active_cycle(self, cycle: int) -> int:
        # The gate is level-triggered on the outstanding count, which
        # only moves when a branch resolves or squashes (a wheel event):
        # while gated it cannot reopen by the clock alone.  Pure — the
        # gated-cycle counter moves only in fetch_allowed (stepped) or
        # close_gated_window (skipped), never in the probe.
        if self._outstanding > self.gating_threshold:
            return NEVER_ACTIVE
        return cycle

    def close_gated_window(self, count: int) -> None:
        # Replays the side effect of the per-cycle fetch_allowed probes a
        # fast-forwarded gated window skipped.
        self.gated_cycles += count
