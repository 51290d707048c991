"""Confidence estimator interface and the four-level categorisation."""

from __future__ import annotations

import enum
from typing import Any

from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor


@enum.unique
class ConfidenceLevel(enum.IntEnum):
    """Paper §4.2: four confidence states, ordered by decreasing confidence.

    The integer ordering (VHC < HC < LC < VLC) doubles as a *throttling
    aggressiveness* ordering: higher value = less confidence = more
    aggressive heuristics may fire.
    """

    VHC = 0  # very-high confidence
    HC = 1  # high confidence
    LC = 2  # low confidence
    VLC = 3  # very-low confidence

    @property
    def is_low(self) -> bool:
        """True for the two low-confidence states (LC, VLC)."""
        return self >= ConfidenceLevel.LC


class ConfidenceEstimator:
    """Assign a confidence level to each conditional-branch prediction."""

    __slots__ = ()

    name = "abstract"

    def set_actual(self, taken: bool) -> None:
        """Tell the estimator the branch's resolved direction before
        :meth:`estimate`.

        The trace-driven front-end knows each branch's outcome at fetch
        time; estimators that model *data-value* knowledge (the perfect
        oracle, or BPRU's value predictor on a value hit) consume it.
        Table-driven estimators ignore it.
        """
        return None

    def estimate(
        self,
        pc: int,
        prediction: Prediction,
        predictor: GSharePredictor,
        update_state: bool = True,
    ) -> ConfidenceLevel:
        """Label a prediction made at fetch time.

        ``update_state`` is False for wrong-path fetches: estimator state
        that advances speculatively at fetch (e.g. BPRU's streak counters)
        is checkpointed and repaired on a squash in hardware, which a
        trace-driven model expresses by never applying the update.
        """
        raise NotImplementedError

    def train(self, pc: int, correct: bool, snapshot: Any, taken: bool = None) -> None:
        """Update the estimator at commit.

        ``correct`` is whether the prediction was right; ``taken`` is the
        resolved direction (used by estimators that model loop trips).
        """
        raise NotImplementedError
