"""The Table-3 memory hierarchy: L1-I, L1-D, unified L2, TLB.

Latencies follow the paper: 1-cycle L1 hits, 6-cycle L2 hits, 18-cycle
L2 misses (memory).  The hierarchy returns the total access latency and
whether L1 hit; the stages turn those into the accesses the power model
consumes (``dcache``, ``dcache2`` and the I-cache share of the fetch stage
in Table 1).
"""

from __future__ import annotations

from repro.memory.cache import Cache
from repro.memory.tlb import TLB


class MemoryHierarchy:
    """I-cache + D-cache backed by a unified L2 and a shared TLB."""

    def __init__(
        self,
        icache_kb: int = 64,
        dcache_kb: int = 64,
        l1_ways: int = 2,
        l2_kb: int = 512,
        l2_ways: int = 4,
        line_bytes: int = 32,
        l1_latency: int = 1,
        l2_latency: int = 6,
        memory_latency: int = 18,
        tlb_entries: int = 128,
        extra_dcache_latency: int = 0,
    ) -> None:
        self.icache = Cache("icache", icache_kb * 1024, l1_ways, line_bytes)
        self.dcache = Cache("dcache", dcache_kb * 1024, l1_ways, line_bytes)
        self.l2 = Cache("l2", l2_kb * 1024, l2_ways, line_bytes)
        self.tlb = TLB(entries=tlb_entries)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        # Deep-pipeline sweeps (paper §5.3.1) lengthen the D-cache pipe.
        self.extra_dcache_latency = extra_dcache_latency

    # Each access returns a plain ``(latency, l1_hit)`` pair: the stage
    # kernel performs one per fetched line and per issued memory op.  An
    # L2 hit and a memory access differ only in latency.

    def fetch_line(self, address: int):
        """Instruction fetch as ``(latency, l1_hit)``."""
        if self.icache.access(address):
            return self.l1_latency, True
        if self.l2.access(address):
            return self.l1_latency + self.l2_latency, False
        return self.l1_latency + self.memory_latency, False

    def load_data(self, address: int):
        """Data load as ``(latency, l1_hit)`` (extra D-cache pipe included)."""
        latency = self.l1_latency + self.tlb.access(address)
        if self.dcache.access(address):
            return latency + self.extra_dcache_latency, True
        if self.l2.access(address):
            return latency + self.l2_latency + self.extra_dcache_latency, False
        return latency + self.memory_latency + self.extra_dcache_latency, False

    def store_data(self, address: int):
        """Data store as ``(latency, l1_hit)`` (write-allocate, like a load)."""
        return self.load_data(address)
