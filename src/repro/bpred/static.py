"""Static (history-free) predictors: useful baselines and test fixtures."""

from __future__ import annotations

from repro.bpred.base import BranchPredictor, Prediction
from repro.errors import ConfigurationError

_POLICIES = ("taken", "not_taken")


class StaticPredictor(BranchPredictor):
    """Always-taken or always-not-taken prediction."""

    name = "static"

    def __init__(self, policy: str = "taken") -> None:
        if policy not in _POLICIES:
            raise ConfigurationError(f"unknown static policy {policy!r}")
        self.policy = policy

    def predict(self, pc: int) -> Prediction:
        return Prediction(self.policy == "taken", None)

    def restore(self, snapshot, actual_taken: bool) -> None:
        return None

    def train(self, pc: int, taken: bool, snapshot=None) -> None:
        return None

    def counter_strength(self, pc: int, snapshot=None) -> int:
        # Report a strong counter: static predictions carry no hysteresis.
        return 3

    def storage_bits(self) -> int:
        return 0
