"""Small shared utilities: deterministic RNG streams, bit helpers, statistics."""

from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact
from repro.utils.rng import XorShiftRNG, derive_seed
from repro.utils.stats import arithmetic_mean, geometric_mean

__all__ = [
    "XorShiftRNG",
    "derive_seed",
    "bit_mask",
    "is_power_of_two",
    "log2_exact",
    "arithmetic_mean",
    "geometric_mean",
]
