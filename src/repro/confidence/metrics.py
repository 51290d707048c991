"""Confidence estimator quality metrics (Grunwald et al., ISCA 1998).

* **SPEC** (specificity): the fraction of *incorrect* predictions that were
  labelled low confidence — how much of the misprediction mass the
  estimator catches.
* **PVN** (predictive value of a negative): the fraction of low-confidence
  labels that actually mispredict — how often pulling the throttle lever is
  justified.

The paper reports SPEC ~= 60% / PVN ~= 45% for its modified BPRU and
SPEC ~= 90% / PVN ~= 24% for JRS at threshold 12.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.confidence.base import ConfidenceLevel


class ConfidenceMatrix:
    """Counts of (confidence level, prediction correctness) outcomes."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[Tuple[ConfidenceLevel, bool], int] = {}

    def record(self, level: ConfidenceLevel, correct: bool) -> None:
        """Record one resolved conditional branch."""
        key = (level, correct)
        self._counts[key] = self._counts.get(key, 0) + 1

    @property
    def mispredictions(self) -> int:
        """Total mispredicted branches recorded."""
        return sum(count for (_, correct), count in self._counts.items() if not correct)

    def low_confidence_total(self) -> int:
        """Branches labelled LC or VLC."""
        return sum(
            count for (level, _), count in self._counts.items() if level.is_low
        )

    def spec(self) -> float:
        """Fraction of mispredictions labelled low confidence."""
        mispredicted = self.mispredictions
        if mispredicted == 0:
            return 0.0
        caught = sum(
            count
            for (level, correct), count in self._counts.items()
            if level.is_low and not correct
        )
        return caught / mispredicted

    def pvn(self) -> float:
        """Fraction of low-confidence labels that mispredict."""
        low = self.low_confidence_total()
        if low == 0:
            return 0.0
        justified = sum(
            count
            for (level, correct), count in self._counts.items()
            if level.is_low and not correct
        )
        return justified / low
