"""The result of one direction prediction."""

from __future__ import annotations

from typing import Any


class Prediction:
    """The result of predicting one conditional branch."""

    __slots__ = ("taken", "snapshot")

    def __init__(self, taken: bool, snapshot: Any) -> None:
        self.taken = taken
        self.snapshot = snapshot

    def __repr__(self) -> str:
        return f"Prediction(taken={self.taken})"
