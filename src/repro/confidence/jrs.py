"""JRS confidence estimator (Jacobsen, Rotenberg & Smith, MICRO 1996).

A table of *miss distance counters* (MDCs): saturating counters indexed like
gshare (PC XOR global history).  A correct prediction increments the
counter; a misprediction resets it to zero.  A prediction is high confidence
when the counter has reached the MDC threshold — i.e. the branch has gone at
least ``threshold`` consecutive (aliased) predictions without a miss.

The paper uses an 8 KB JRS with an MDC threshold of 12 (4-bit counters) for
its Pipeline Gating baseline, quoting SPEC ~= 90% and PVN ~= 24%.

``correct_increment`` (default 1, the original design) is exposed as a
calibration knob: larger steps reach the threshold sooner, trading SPEC
for PVN — useful for sensitivity studies of how Pipeline Gating responds
to its estimator's operating point.
"""

from __future__ import annotations

from typing import Any

from repro.bpred.base import Prediction
from repro.bpred.gshare import GSharePredictor
from repro.confidence.base import ConfidenceEstimator, ConfidenceLevel
from repro.errors import ConfigurationError
from repro.utils.bitops import bit_mask, log2_exact

COUNTER_BITS = 4
_COUNTER_MAX = (1 << COUNTER_BITS) - 1


class JRSEstimator(ConfidenceEstimator):
    """Resetting miss-distance counters with a confidence threshold."""

    name = "jrs"

    __slots__ = (
        "threshold", "correct_increment", "entries", "_mask", "table",
    )

    def __init__(
        self, size_kb: int = 8, threshold: int = 12, correct_increment: int = 1
    ) -> None:
        if size_kb <= 0:
            raise ConfigurationError(f"JRS size must be positive, got {size_kb} KB")
        if not 1 <= threshold <= _COUNTER_MAX:
            raise ConfigurationError(
                f"MDC threshold must be in [1, {_COUNTER_MAX}], got {threshold}"
            )
        if correct_increment < 1:
            raise ConfigurationError("correct_increment must be >= 1")
        self.threshold = threshold
        self.correct_increment = correct_increment
        entries = size_kb * 1024 * 8 // COUNTER_BITS
        self.entries = entries
        self._mask = bit_mask(log2_exact(entries))
        self.table = [0] * entries

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & self._mask

    def estimate(
        self,
        pc: int,
        prediction: Prediction,
        predictor: GSharePredictor,
        update_state: bool = True,
    ) -> ConfidenceLevel:
        counter = self.table[self._index(pc, prediction.snapshot)]
        # JRS is binary: the four-level interface maps high->HC, low->LC.
        if counter >= self.threshold:
            return ConfidenceLevel.HC
        return ConfidenceLevel.LC

    def train(self, pc: int, correct: bool, snapshot: Any, taken: bool = None) -> None:
        index = self._index(pc, snapshot)
        if correct:
            counter = self.table[index] + self.correct_increment
            self.table[index] = counter if counter < _COUNTER_MAX else _COUNTER_MAX
        else:
            self.table[index] = 0
