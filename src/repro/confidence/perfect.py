"""Perfect (oracle) confidence estimation.

Labels every prediction with full knowledge of the outcome: mispredictions
are VLC, correct predictions VHC.  This is the upper bound any realistic
estimator is chasing (SPEC = PVN = 100%), and it drives the oracle-fetch
experiments of the paper's Figure 1 when combined with fetch gating.
"""

from __future__ import annotations

from typing import Any

from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor
from repro.confidence.base import ConfidenceEstimator, ConfidenceLevel


class PerfectEstimator(ConfidenceEstimator):
    """Oracle estimator: the pipeline tells it the actual outcome via hint."""

    name = "perfect"

    __slots__ = ("_next_actual_taken",)

    def __init__(self) -> None:
        self._next_actual_taken = None

    def set_actual(self, taken: bool) -> None:
        """Provide the true outcome of the branch about to be estimated.

        The fetch stage knows the true outcome in a trace-driven simulator;
        it deposits the outcome here immediately before calling estimate().
        """
        self._next_actual_taken = taken

    def estimate(
        self,
        pc: int,
        prediction: Prediction,
        predictor: GSharePredictor,
        update_state: bool = True,
    ) -> ConfidenceLevel:
        if self._next_actual_taken is None:
            # Without a hint there is nothing to be oracular about.
            return ConfidenceLevel.HC
        actual = self._next_actual_taken
        self._next_actual_taken = None
        if prediction.taken == actual:
            return ConfidenceLevel.VHC
        return ConfidenceLevel.VLC

    def train(self, pc: int, correct: bool, snapshot: Any, taken: bool = None) -> None:
        return None
