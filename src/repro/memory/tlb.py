"""Fully-associative TLB (Table 3: 128 entries, 4 KB pages)."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils.bitops import is_power_of_two, log2_exact


class TLB:
    """Fully-associative translation buffer with LRU replacement."""

    def __init__(self, entries: int = 128, page_bytes: int = 4096,
                 miss_penalty: int = 30) -> None:
        if entries <= 0:
            raise ConfigurationError(f"TLB entries must be positive, got {entries}")
        if not is_power_of_two(page_bytes):
            raise ConfigurationError(f"page size must be a power of two, got {page_bytes}")
        if miss_penalty < 0:
            raise ConfigurationError("TLB miss penalty must be non-negative")
        self.entries = entries
        self.page_bytes = page_bytes
        self.miss_penalty = miss_penalty
        self._page_bits = log2_exact(page_bytes)
        self._pages = []  # LRU order, front = MRU

    def access(self, address: int) -> int:
        """Translate; return the added latency (0 on hit, penalty on miss)."""
        page = address >> self._page_bits
        pages = self._pages
        # MRU hit: the overwhelmingly common case, no LRU reordering.
        if pages and pages[0] == page:
            return 0
        try:
            position = self._pages.index(page)
        except ValueError:
            self._pages.insert(0, page)
            if len(self._pages) > self.entries:
                self._pages.pop()
            return self.miss_penalty
        if position:
            self._pages.insert(0, self._pages.pop(position))
        return 0
