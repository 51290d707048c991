"""Set-associative cache model with LRU replacement.

Timing-only: the model tracks which lines are resident and produces
hit/miss decisions; it stores no data.  That is exactly what the
power/performance evaluation needs: the stages turn each decision into a
latency for the timing model and an access for the power model.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


class Cache:
    """A set-associative cache with true LRU within each set."""

    def __init__(self, name: str, size_bytes: int, ways: int, line_bytes: int) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigurationError(f"{name}: cache geometry must be positive")
        if not is_power_of_two(line_bytes):
            raise ConfigurationError(f"{name}: line size must be a power of two")
        if size_bytes % (ways * line_bytes):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by ways*line"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{name}: set count must be a power of two")
        self._offset_bits = log2_exact(line_bytes)
        self._set_mask = bit_mask(log2_exact(self.num_sets))
        # Per-set list of tags in LRU order (front = MRU).  Sets are
        # allocated on first touch: an untouched set is the shared empty
        # tuple, so a fresh cache costs one list, not one per set.
        self._sets = [()] * self.num_sets

    def access(self, address: int) -> bool:
        """Access the cache; allocate on miss.  Returns True on a hit."""
        line = address >> self._offset_bits
        index = line & self._set_mask
        tag_set = self._sets[index]
        if not tag_set:
            self._sets[index] = [line]
            return False
        # MRU hit: the overwhelmingly common case, no LRU reordering.
        if tag_set[0] == line:
            return True
        try:
            position = tag_set.index(line)
        except ValueError:
            tag_set.insert(0, line)
            if len(tag_set) > self.ways:
                tag_set.pop()
            return False
        if position:
            tag_set.insert(0, tag_set.pop(position))
        return True

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, {self.size_bytes // 1024} KB, "
            f"{self.ways}-way, {self.line_bytes} B lines)"
        )
