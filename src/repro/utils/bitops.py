"""Bit-manipulation helpers shared by predictors, caches and tables."""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of a power of two, raising ValueError otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def bit_mask(bits: int) -> int:
    """Return a mask with the low ``bits`` bits set."""
    if bits < 0:
        raise ValueError("bit count must be non-negative")
    return (1 << bits) - 1
