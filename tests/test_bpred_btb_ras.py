"""Tests for the branch target buffer and return address stack."""

import pytest

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import ReturnAddressStack
from repro.errors import ConfigurationError


# --- BTB --------------------------------------------------------------------

def test_btb_miss_then_hit():
    btb = BranchTargetBuffer(64, 2)
    assert btb.lookup(0x1000) is None
    btb.update(0x1000, 0x2000)
    assert btb.lookup(0x1000) == 0x2000


def test_btb_update_replaces_target():
    btb = BranchTargetBuffer(64, 2)
    btb.update(0x1000, 0x2000)
    btb.update(0x1000, 0x3000)
    assert btb.lookup(0x1000) == 0x3000


def test_btb_lru_eviction_within_set():
    btb = BranchTargetBuffer(4, 2)  # 2 sets x 2 ways
    set_stride = 4 * 2  # pcs 8 bytes apart in the same set
    pc_a, pc_b, pc_c = 0x1000, 0x1000 + set_stride, 0x1000 + 2 * set_stride
    btb.update(pc_a, 1)
    btb.update(pc_b, 2)
    btb.lookup(pc_a)  # refresh A
    btb.update(pc_c, 3)  # evicts LRU (B)
    assert btb.lookup(pc_a) == 1
    assert btb.lookup(pc_b) is None
    assert btb.lookup(pc_c) == 3


def test_btb_bad_geometry():
    with pytest.raises(ConfigurationError):
        BranchTargetBuffer(10, 3)
    with pytest.raises(ConfigurationError):
        BranchTargetBuffer(0, 1)


# --- RAS --------------------------------------------------------------------

def test_ras_push_pop_lifo():
    ras = ReturnAddressStack(8)
    ras.push(0x100)
    ras.push(0x200)
    assert ras.pop() == 0x200
    assert ras.pop() == 0x100


def test_ras_empty_pop_returns_zero():
    ras = ReturnAddressStack(8)
    assert ras.pop() == 0
    assert ras.pop() == 0


def test_ras_overflow_wraps():
    ras = ReturnAddressStack(2)
    ras.push(1)
    ras.push(2)
    ras.push(3)  # wraps: overwrites the slot that held 1
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() == 3  # the wrapped slot now holds the overwrite, not 1


def test_ras_checkpoint_restore_repairs_speculation():
    ras = ReturnAddressStack(8)
    ras.push(0x100)
    point = ras.checkpoint()
    ras.push(0x200)  # speculative call
    ras.pop()
    ras.pop()  # speculative return popping too far
    ras.restore(point)
    assert ras.pop() == 0x100
    assert ras.pop() == 0


def test_ras_len_bounded_by_depth():
    ras = ReturnAddressStack(4)
    for i in range(10):
        ras.push(i)
    # The circular stack keeps only the four newest return addresses.
    assert [ras.pop() for _ in range(4)] == [9, 8, 7, 6]


def test_ras_invalid_depth():
    with pytest.raises(ConfigurationError):
        ReturnAddressStack(0)
