"""Branch behaviour models.

Each conditional branch in a synthetic program owns one behaviour instance.
The mix of behaviours is what calibrates a workload's gshare misprediction
rate (Table 2 of the paper):

* :class:`LoopBehavior` — backward branches; taken until the trip count runs
  out.  Nearly perfectly predictable for long, stable loops; the short-trip
  variant injects the classic loop-exit mispredictions.
* :class:`PatternBehavior` — short repeating history patterns; a two-level
  predictor learns them perfectly once warmed up.
* :class:`BiasedBehavior` — independent Bernoulli outcomes; contributes a
  misprediction floor of ``min(p, 1-p)``.
* :class:`CorrelatedBehavior` — outcome is a parity function of recent global
  history bits plus noise.  gshare learns the correlation, the noise term is
  irreducible; this mimics data-dependent branches.

Behaviours are *stateful* and must only be advanced along the true path —
exactly once per conditional-terminator visit, in program order.  The
true-path walk of :class:`~repro.frontend.supply.CompiledSupply` upholds
that contract; wrong-path outcomes come from a stateless hash and never
touch behaviour state.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ProgramError
from repro.utils.rng import XorShiftRNG


class BranchBehavior:
    """Interface: produce the next true outcome of a conditional branch."""

    def next_outcome(self, global_history: int) -> bool:
        """Advance the behaviour and return the branch outcome.

        ``global_history`` is the walker's register of recent true-path
        outcomes (bit 0 = most recent), consulted by correlated behaviours.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the initial state (used when a program is re-run)."""
        raise NotImplementedError


class BiasedBehavior(BranchBehavior):
    """Independent outcomes, taken with fixed probability ``p_taken``."""

    def __init__(self, p_taken: float, seed: int) -> None:
        if not 0.0 <= p_taken <= 1.0:
            raise ProgramError(f"p_taken must be a probability, got {p_taken}")
        self.p_taken = p_taken
        self._seed = seed
        self._rng = XorShiftRNG(seed)

    def next_outcome(self, global_history: int) -> bool:
        return self._rng.chance(self.p_taken)

    def reset(self) -> None:
        self._rng = XorShiftRNG(self._seed)


class LoopBehavior(BranchBehavior):
    """A backward loop branch: taken ``trip - 1`` times, then not taken.

    The trip count is re-drawn on each loop entry from a geometric-ish
    distribution around ``mean_trip`` when ``jitter`` is non-zero, which
    makes the exit point hard for a counter-free predictor to pin down.
    """

    def __init__(self, mean_trip: int, seed: int, jitter: float = 0.0) -> None:
        if mean_trip < 1:
            raise ProgramError(f"mean trip count must be >= 1, got {mean_trip}")
        if not 0.0 <= jitter <= 1.0:
            raise ProgramError(f"jitter must be in [0, 1], got {jitter}")
        self.mean_trip = mean_trip
        self.jitter = jitter
        self._seed = seed
        self._rng = XorShiftRNG(seed)
        self._remaining = self._draw_trip()

    def _draw_trip(self) -> int:
        if self.jitter == 0.0:
            return self.mean_trip
        spread = max(1, int(self.mean_trip * self.jitter))
        trip = self.mean_trip + self._rng.randint(-spread, spread)
        return max(1, trip)

    def next_outcome(self, global_history: int) -> bool:
        self._remaining -= 1
        if self._remaining > 0:
            return True
        self._remaining = self._draw_trip()
        return False

    def reset(self) -> None:
        self._rng = XorShiftRNG(self._seed)
        self._remaining = self._draw_trip()


class PatternBehavior(BranchBehavior):
    """Outcomes cycle through a fixed boolean pattern."""

    def __init__(self, pattern: Sequence[bool]) -> None:
        if not pattern:
            raise ProgramError("pattern must be non-empty")
        self.pattern = tuple(bool(p) for p in pattern)
        self._index = 0

    def next_outcome(self, global_history: int) -> bool:
        outcome = self.pattern[self._index]
        self._index = (self._index + 1) % len(self.pattern)
        return outcome

    def reset(self) -> None:
        self._index = 0


class CorrelatedBehavior(BranchBehavior):
    """Outcome = parity of masked global history bits, XOR noise.

    ``history_mask`` selects which recent branch outcomes the branch
    correlates with; ``noise`` is the probability the deterministic outcome
    flips, which bounds the achievable prediction accuracy at ``1 - noise``.
    """

    def __init__(self, history_mask: int, noise: float, seed: int) -> None:
        if history_mask <= 0:
            raise ProgramError("history_mask must select at least one bit")
        if not 0.0 <= noise <= 1.0:
            raise ProgramError(f"noise must be a probability, got {noise}")
        self.history_mask = history_mask
        self.noise = noise
        self._seed = seed
        self._rng = XorShiftRNG(seed)

    def next_outcome(self, global_history: int) -> bool:
        parity = bin(global_history & self.history_mask).count("1") & 1
        outcome = bool(parity)
        if self.noise and self._rng.chance(self.noise):
            outcome = not outcome
        return outcome

    def reset(self) -> None:
        self._rng = XorShiftRNG(self._seed)
