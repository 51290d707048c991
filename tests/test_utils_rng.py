"""Tests for the deterministic RNG streams."""

import pytest

from repro.utils.rng import (
    XorShiftRNG,
    derive_seed,
    derive_thread_seed,
    draw_threshold,
    stateless_hash,
    weighted_thresholds,
)


def test_derive_thread_seed_deterministic():
    assert derive_thread_seed(2003, 0) == derive_thread_seed(2003, 0)
    assert derive_thread_seed(2003, 3) == derive_thread_seed(2003, 3)


def test_derive_thread_seed_separates_threads_and_bases():
    seeds = {derive_thread_seed(2003, tid) for tid in range(64)}
    assert len(seeds) == 64
    assert derive_thread_seed(2003, 0) != derive_thread_seed(2004, 0)
    # Adjacent bases and thread ids never cross over.
    assert derive_thread_seed(2003, 1) != derive_thread_seed(2004, 0)


def test_derive_thread_seed_is_domain_separated():
    # A thread seed must not collide with a plain integer-label derivation
    # of the same values (splitmix domain separation via the label).
    assert derive_thread_seed(7, 1) != derive_seed(7, 1)


def test_derive_thread_seed_is_a_valid_xorshift_seed():
    for tid in range(8):
        seed = derive_thread_seed(0, tid)
        assert seed != 0
        rng = XorShiftRNG(seed)
        assert 0.0 <= rng.random() < 1.0


def test_derive_thread_seed_rejects_negative_ids():
    with pytest.raises(ValueError):
        derive_thread_seed(1, -1)


def test_same_seed_same_stream():
    a = XorShiftRNG(123)
    b = XorShiftRNG(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_different_streams():
    a = XorShiftRNG(123)
    b = XorShiftRNG(124)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_random_in_unit_interval():
    rng = XorShiftRNG(7)
    for _ in range(1000):
        value = rng.random()
        assert 0.0 <= value < 1.0


def test_random_is_roughly_uniform():
    rng = XorShiftRNG(7)
    mean = sum(rng.random() for _ in range(20_000)) / 20_000
    assert abs(mean - 0.5) < 0.02


def test_randint_bounds_inclusive():
    rng = XorShiftRNG(9)
    values = {rng.randint(3, 5) for _ in range(200)}
    assert values == {3, 4, 5}


def test_randint_single_value():
    rng = XorShiftRNG(9)
    assert rng.randint(4, 4) == 4


def test_randint_empty_range_raises():
    rng = XorShiftRNG(9)
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_choice_and_empty_choice():
    rng = XorShiftRNG(1)
    assert rng.choice([10]) == 10
    with pytest.raises(ValueError):
        rng.choice([])


def test_chance_extremes():
    rng = XorShiftRNG(1)
    assert not any(rng.chance(0.0) for _ in range(100))
    assert all(rng.chance(1.0) for _ in range(100))


def test_weighted_choice_respects_zero_weight():
    rng = XorShiftRNG(5)
    picks = {rng.weighted_choice(("a", "b"), (1.0, 0.0)) for _ in range(100)}
    assert picks == {"a"}


def test_weighted_choice_distribution():
    rng = XorShiftRNG(5)
    counts = {"a": 0, "b": 0}
    for _ in range(10_000):
        counts[rng.weighted_choice(("a", "b"), (3.0, 1.0))] += 1
    ratio = counts["a"] / counts["b"]
    assert 2.5 < ratio < 3.6


def test_weighted_choice_validation():
    rng = XorShiftRNG(5)
    with pytest.raises(ValueError):
        rng.weighted_choice(("a",), (1.0, 2.0))
    with pytest.raises(ValueError):
        rng.weighted_choice(("a", "b"), (0.0, 0.0))


def _state_before(value):
    """The xorshift state whose next ``next_u64`` draw is ``value``."""
    mask = (1 << 64) - 1
    state = value * pow(0x2545F4914F6CDD1D, -1, 1 << 64) & mask
    # Undo the three xorshift lines, last first.
    for shift in (27, -25, 12):
        undone = state
        for _ in range(64 // abs(shift) + 1):
            moved = undone >> shift if shift > 0 else undone << -shift & mask
            undone = state ^ moved
        state = undone
    return state


def _edge_draws():
    """Raw draws at and beside every cut-off below, plus the extremes."""
    unit = 1 << 11
    edges = {0, unit - 1, (1 << 64) - 1}
    for probability in (0.5, 0.9, 0.45, 1e-9, 1.0 - 2 ** -53):
        cut = draw_threshold(probability)
        edges.update({cut - unit, cut - 1, cut, cut + unit})
    return sorted(value for value in edges if 0 <= value < 1 << 64)


@pytest.mark.parametrize("probability", [
    0.0, 1e-17, 1e-9, 0.04, 0.45, 0.5, 0.9, 1.0 - 2 ** -53, 1.0, 1.5, -0.1,
])
def test_draw_threshold_agrees_with_chance(probability):
    cut = draw_threshold(probability)
    reference, raw = XorShiftRNG(99), XorShiftRNG(99)
    for _ in range(2000):
        assert reference.chance(probability) == (raw.next_u64() < cut)
    for value in _edge_draws():
        assert ((value >> 11) * (1.0 / (1 << 53)) < probability) == (value < cut)


@pytest.mark.parametrize("weights", [
    (0.58, 0.03, 0.25, 0.12, 0.02),
    (0.40, 0.30, 0.20, 0.10),
    (0.45, 0.20, 0.15, 0.02, 0.08),
    (1.0, 0.0),
    (0.0, 1.0, 0.0),
    (3, 1),
    (0.1, 0.2, 0.3),  # running sums that do not add up exactly
])
def test_weighted_thresholds_pick_what_weighted_choice_did(weights):
    from bisect import bisect_right

    cuts = weighted_thresholds(weights)
    assert cuts[-1] == 1 << 64
    rng = XorShiftRNG(7)
    draws = [rng.next_u64() for _ in range(3000)] + _edge_draws()
    for cut in cuts[:-1]:
        draws.extend(value for value in (cut - 1, cut, cut + 1) if 0 <= value < 1 << 64)
    indices = range(len(weights))
    for value in draws:
        state = _state_before(value)
        if not state:
            continue  # a zero state is never reached
        rng.setstate(state)
        assert rng.weighted_choice(indices, weights) == bisect_right(cuts, value)
        rng.setstate(state)
        assert rng.next_u64() == value


def test_shuffle_is_permutation():
    rng = XorShiftRNG(11)
    items = list(range(50))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_state_roundtrip():
    rng = XorShiftRNG(77)
    rng.next_u64()
    state = rng.getstate()
    first = [rng.next_u64() for _ in range(5)]
    rng.setstate(state)
    assert [rng.next_u64() for _ in range(5)] == first


def test_setstate_rejects_invalid():
    rng = XorShiftRNG(77)
    with pytest.raises(ValueError):
        rng.setstate(0)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1) != 0


def test_stateless_hash_pure_and_sensitive():
    assert stateless_hash(1, 2, 3) == stateless_hash(1, 2, 3)
    assert stateless_hash(1, 2, 3) != stateless_hash(1, 2, 4)
    assert stateless_hash(1, 2, 3) != stateless_hash(2, 2, 3)
