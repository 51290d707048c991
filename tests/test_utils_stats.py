"""Tests for the statistics helpers."""

import math

import pytest

from repro.utils.stats import arithmetic_mean, geometric_mean


def test_arithmetic_mean():
    assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0


def test_arithmetic_mean_empty_raises():
    with pytest.raises(ValueError):
        arithmetic_mean([])


def test_geometric_mean():
    assert math.isclose(geometric_mean([1.0, 4.0]), 2.0)
    assert math.isclose(geometric_mean([2.0, 2.0, 2.0]), 2.0)


def test_geometric_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([])
