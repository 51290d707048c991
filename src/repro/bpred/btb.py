"""Branch target buffer: set-associative PC-to-target cache (Table 3: 1024
entries, 2-way).  A taken-predicted branch that misses in the BTB cannot
redirect fetch the same cycle; the front-end charges one bubble cycle."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils.bitops import bit_mask, log2_exact


class BranchTargetBuffer:
    """Set-associative BTB with true-LRU replacement within a set."""

    def __init__(self, entries: int = 1024, ways: int = 2) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ConfigurationError(f"bad BTB geometry {entries}x{ways}")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self._set_bits = log2_exact(self.sets)
        self._set_mask = bit_mask(self._set_bits)
        # Each set: list of (tag, target) in LRU order (front = MRU),
        # allocated on first insert; an untouched set is the shared empty
        # tuple.
        self._table = [()] * self.sets

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) & self._set_mask

    def _tag(self, pc: int) -> int:
        return pc >> (2 + self._set_bits)

    def lookup(self, pc: int):
        """Return the cached target for ``pc`` or None on a miss."""
        entry_set = self._table[self._set_index(pc)]
        tag = self._tag(pc)
        for position, (entry_tag, target) in enumerate(entry_set):
            if entry_tag == tag:
                if position:
                    entry_set.insert(0, entry_set.pop(position))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target of a taken branch."""
        index = self._set_index(pc)
        entry_set = self._table[index]
        tag = self._tag(pc)
        if not entry_set:
            self._table[index] = [(tag, target)]
            return
        for position, (entry_tag, _) in enumerate(entry_set):
            if entry_tag == tag:
                entry_set.pop(position)
                break
        entry_set.insert(0, (tag, target))
        if len(entry_set) > self.ways:
            entry_set.pop()
