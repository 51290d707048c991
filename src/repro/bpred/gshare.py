"""gshare predictor (McFarling 1993) with speculative history update.

An ``N``-entry table of 2-bit saturating counters indexed by
``(pc >> 2) XOR GHR``.  The paper's baseline is the 8 KB configuration:
8 KB x 8 bits / 2 bits-per-counter = 32768 counters, 15 history bits.

The global history register is updated *speculatively* at predict time with
the predicted direction and repaired on a misprediction from the snapshot
carried by the prediction (paper §3: "whose history register is
speculatively updated").
"""

from __future__ import annotations

from repro.bpred.base import BranchPredictor, Prediction
from repro.errors import ConfigurationError
from repro.utils.bitops import bit_mask, log2_exact

COUNTER_BITS = 2
_COUNTER_MAX = (1 << COUNTER_BITS) - 1
_TAKEN_THRESHOLD = 1 << (COUNTER_BITS - 1)
_WEAK_TAKEN = _TAKEN_THRESHOLD


class GSharePredictor(BranchPredictor):
    """gshare with speculatively-updated global history."""

    name = "gshare"

    def __init__(self, size_kb: int = 8) -> None:
        if size_kb <= 0:
            raise ConfigurationError(f"gshare size must be positive, got {size_kb} KB")
        self.size_kb = size_kb
        entries = size_kb * 1024 * 8 // COUNTER_BITS
        self.index_bits = log2_exact(entries)
        self.entries = entries
        self._mask = bit_mask(self.index_bits)
        # Initialise weakly taken: most branches are taken, warm-up is fast.
        self.table = [_WEAK_TAKEN] * entries
        self.history = 0

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & self._mask

    def predict(self, pc: int) -> Prediction:
        snapshot = self.history
        counter = self.table[self._index(pc, snapshot)]
        taken = counter >= _TAKEN_THRESHOLD
        self.history = ((snapshot << 1) | int(taken)) & self._mask
        return Prediction(taken, snapshot)

    def restore(self, snapshot: int, actual_taken: bool) -> None:
        self.history = ((snapshot << 1) | int(actual_taken)) & self._mask

    def train(self, pc: int, taken: bool, snapshot: int) -> None:
        index = self._index(pc, snapshot)
        counter = self.table[index]
        if taken:
            if counter < _COUNTER_MAX:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1

    def counter_strength(self, pc: int, snapshot: int) -> int:
        return self.table[self._index(pc, snapshot)]

    def storage_bits(self) -> int:
        return self.entries * COUNTER_BITS + self.index_bits
