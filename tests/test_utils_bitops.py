"""Tests for bit-manipulation helpers."""

import pytest

from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


def test_is_power_of_two():
    powers = {1, 2, 4, 8, 1024, 1 << 30}
    for value in range(-4, 1100):
        assert is_power_of_two(value) == (value in powers or (value > 0 and (value & (value - 1)) == 0))


def test_is_power_of_two_rejects_zero_and_negative():
    assert not is_power_of_two(0)
    assert not is_power_of_two(-8)


def test_log2_exact():
    assert log2_exact(1) == 0
    assert log2_exact(2) == 1
    assert log2_exact(32768) == 15


def test_log2_exact_rejects_non_powers():
    with pytest.raises(ValueError):
        log2_exact(24)
    with pytest.raises(ValueError):
        log2_exact(0)


def test_bit_mask():
    assert bit_mask(0) == 0
    assert bit_mask(4) == 0xF
    assert bit_mask(15) == 0x7FFF


def test_bit_mask_negative_raises():
    with pytest.raises(ValueError):
        bit_mask(-1)
