"""Summary statistics used when aggregating per-benchmark results.

The paper reports arithmetic averages of per-benchmark percentages for its
savings plots; speedup aggregation conventionally uses the geometric mean.
"""

from __future__ import annotations

import math
from typing import Iterable


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average; raises ValueError on an empty input."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the right mean for speedups)."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
