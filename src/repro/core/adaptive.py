"""Adaptive Selective Throttling (an extension beyond the paper).

The paper picks one static policy (C2) for all programs and phases; its
own sensitivity study shows the best aggressiveness depends on how good
the confidence estimator happens to be on the running code.  This module
closes that loop: :class:`AdaptiveThrottler` monitors the *realised
precision* of its own triggers — the fraction of recently armed LC/VLC
heuristics whose branch turned out mispredicted — and moves along a
ladder of policies, escalating while triggers keep paying off and backing
off when they mostly fire on correctly-predicted branches.

The ladder defaults to (A1, A5, C2): gentle fetch halving, the paper's
best fetch-only point, and the paper's overall best.  Precision is
measured over a sliding window of resolved triggers; hysteresis (distinct
up/down thresholds) prevents oscillation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence

from repro.confidence.base import ConfidenceLevel
from repro.core.levels import next_wheel_active
from repro.core.policy import ThrottlePolicy, experiment_policy
from repro.core.throttler import SelectiveThrottler, SpeculationController
from repro.errors import ConfigurationError
from repro.isa.instruction import DynamicInstruction

DEFAULT_LADDER = ("A1", "A5", "C2")


def default_ladder() -> Sequence[ThrottlePolicy]:
    """The default aggressiveness ladder (gentle -> paper's best)."""
    return tuple(experiment_policy(name) for name in DEFAULT_LADDER)


class AdaptiveThrottler(SpeculationController):
    """Selective Throttling with runtime aggressiveness adaptation.

    Wraps one :class:`SelectiveThrottler` per ladder rung and delegates
    to the active rung; every resolved or squashed trigger feeds the
    precision window, and crossing the hysteresis thresholds moves the
    active rung.  Armed tokens live in the rung that armed them, so a
    policy switch never orphans or re-labels in-flight triggers.
    """

    name = "adaptive-throttling"

    def __init__(
        self,
        ladder: Optional[Sequence[ThrottlePolicy]] = None,
        window: int = 64,
        promote_threshold: float = 0.45,
        demote_threshold: float = 0.25,
        start_rung: int = 1,
    ) -> None:
        policies = tuple(ladder) if ladder is not None else default_ladder()
        if not policies:
            raise ConfigurationError("adaptive ladder needs at least one policy")
        if window < 8:
            raise ConfigurationError("precision window must hold >= 8 triggers")
        if not 0.0 <= demote_threshold < promote_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 <= demote_threshold < promote_threshold <= 1"
            )
        if not 0 <= start_rung < len(policies):
            raise ConfigurationError(f"start rung {start_rung} out of range")
        self._rungs = [SelectiveThrottler(policy) for policy in policies]
        self.throttles_decode = any(p.throttles_decode for p in policies)
        self.throttles_selection = any(p.throttles_selection for p in policies)
        self.window = window
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self.rung = start_rung
        self._outcomes: Deque[bool] = deque(maxlen=window)
        # Statistics.
        self.promotions = 0
        self.demotions = 0
        self.triggers = 0

    @property
    def policy(self) -> ThrottlePolicy:
        """The currently active policy."""
        return self._rungs[self.rung].policy

    @property
    def precision(self) -> float:
        """Fraction of recently resolved triggers that were justified."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    # ------------------------------------------------------------------
    # SpeculationController interface (delegation + adaptation)
    # ------------------------------------------------------------------

    def on_branch_fetched(
        self, instruction: DynamicInstruction, level: ConfidenceLevel
    ) -> None:
        active = self._rungs[self.rung]
        if not active.policy.action_for(level).is_null:
            self.triggers += 1
        active.on_branch_fetched(instruction, level)

    def on_branch_resolved(self, instruction: DynamicInstruction) -> None:
        self._record_outcome(instruction)
        for rung in self._rungs:
            rung.on_branch_resolved(instruction)

    def on_branch_squashed(self, instruction: DynamicInstruction) -> None:
        # A squashed trigger sat on a wrong path; it never cost the true
        # path anything, so it does not vote on precision.
        for rung in self._rungs:
            rung.on_branch_squashed(instruction)

    def _record_outcome(self, instruction: DynamicInstruction) -> None:
        if instruction.throttle_token is None:
            return
        self._outcomes.append(bool(instruction.mispredicted))
        if len(self._outcomes) == self.window:
            self._adapt()

    def _adapt(self) -> None:
        precision = self.precision
        if precision >= self.promote_threshold and self.rung < len(self._rungs) - 1:
            self.rung += 1
            self.promotions += 1
            self._outcomes.clear()
        elif precision <= self.demote_threshold and self.rung > 0:
            self.rung -= 1
            self.demotions += 1
            self._outcomes.clear()

    def fetch_allowed(self, cycle: int) -> bool:
        return all(rung.fetch_allowed(cycle) for rung in self._active_rungs())

    def next_active_cycle(self, cycle: int) -> int:
        # fetch_allowed ANDs the active rungs' wheel probes, so the
        # combined schedule is the AND of their 4-cycle masks.
        mask = 0b1111
        for rung in self._active_rungs():
            mask &= rung._fetch_mask
        return next_wheel_active(mask, cycle)

    def blocks_decode(self, cycle: int, instruction: DynamicInstruction) -> bool:
        return any(
            rung.blocks_decode(cycle, instruction) for rung in self._active_rungs()
        )

    def blocks_selection(self, instruction: DynamicInstruction) -> bool:
        return any(
            rung.blocks_selection(instruction) for rung in self._active_rungs()
        )

    def _active_rungs(self):
        """Rungs with armed tokens (plus the current one)."""
        for index, rung in enumerate(self._rungs):
            if index == self.rung or rung.active_token_count:
                yield rung

    def reset(self) -> None:
        for rung in self._rungs:
            rung.reset()
        self._outcomes.clear()
