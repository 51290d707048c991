"""Tests for caches, TLB and the memory hierarchy."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB


# --- cache ------------------------------------------------------------------

def test_cache_geometry():
    cache = Cache("t", 64 * 1024, 2, 32)
    assert cache.num_sets == 1024


def test_cache_bad_geometry():
    with pytest.raises(ConfigurationError):
        Cache("t", 100, 2, 32)
    with pytest.raises(ConfigurationError):
        Cache("t", 64 * 1024, 2, 33)


def test_cache_miss_then_hit_same_line():
    cache = Cache("t", 1024, 2, 32)
    assert not cache.access(0x100)
    assert cache.access(0x100)
    assert cache.access(0x11C)  # same 32-byte line


def test_cache_lru_eviction():
    cache = Cache("t", 64, 2, 32)  # 1 set, 2 ways
    cache.access(0x000)
    cache.access(0x100)
    cache.access(0x000)  # refresh
    cache.access(0x200)  # evicts 0x100
    assert cache._sets[0] == [0x200 >> 5, 0x000 >> 5]  # MRU first
    assert cache.access(0x000)
    assert not cache.access(0x100)


# --- TLB --------------------------------------------------------------------

def test_tlb_miss_penalty_then_hit():
    tlb = TLB(entries=4, page_bytes=4096, miss_penalty=30)
    assert tlb.access(0x1000) == 30
    assert tlb.access(0x1FFC) == 0  # same page


def test_tlb_lru_eviction():
    tlb = TLB(entries=2, page_bytes=4096, miss_penalty=10)
    tlb.access(0x1000)
    tlb.access(0x2000)
    tlb.access(0x1000)  # refresh page 1
    tlb.access(0x3000)  # evicts page 2
    assert tlb.access(0x1000) == 0
    assert tlb.access(0x2000) == 10


def test_tlb_validation():
    with pytest.raises(ConfigurationError):
        TLB(entries=0)
    with pytest.raises(ConfigurationError):
        TLB(page_bytes=1000)


# --- hierarchy --------------------------------------------------------------

def test_hierarchy_l1_hit_latency():
    memory = MemoryHierarchy()
    memory.load_data(0x1000)  # cold miss
    latency, l1_hit = memory.load_data(0x1000)
    assert l1_hit
    assert latency == 1


def test_hierarchy_l2_hit_latency():
    memory = MemoryHierarchy(icache_kb=1, dcache_kb=1, l2_kb=512)
    memory.load_data(0x1000)  # warm L2
    # Evict from tiny L1 by streaming
    for address in range(0x10000, 0x10000 + 4096, 32):
        memory.load_data(address)
    latency, l1_hit = memory.load_data(0x1000)
    assert not l1_hit
    assert latency == 1 + 6  # an L2 hit: memory would take >= 1 + 18


def test_hierarchy_memory_latency_on_cold_miss():
    memory = MemoryHierarchy()
    latency, l1_hit = memory.load_data(0x9999000)
    assert not l1_hit
    assert latency >= 1 + 18  # plus a possible TLB penalty


def test_hierarchy_fetch_skips_tlb():
    memory = MemoryHierarchy()
    latency, _ = memory.fetch_line(0x4000)
    assert latency == 1 + 18  # icache+L2 miss, never a TLB penalty


def test_hierarchy_extra_dcache_latency():
    memory = MemoryHierarchy(extra_dcache_latency=2)
    memory.load_data(0x1000)
    assert memory.load_data(0x1000)[0] == 3
