"""Memory hierarchy: set-associative caches, TLB and the Table-3 wiring."""

from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB

__all__ = ["Cache", "TLB", "MemoryHierarchy"]
