"""Deterministic pseudo-random number generation.

Every stochastic decision in the simulator flows from a named
:class:`XorShiftRNG` stream so runs are bit-identical across processes and
platforms.  We deliberately avoid :mod:`random` for simulator state: its
global singleton invites cross-contamination between components, and its
Mersenne Twister state is needlessly heavy to snapshot.

The generator is the classic 64-bit xorshift* of Vigna (2016): tiny state,
good statistical quality for simulation purposes, and trivially portable.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# ``(x >> 11) * _UNIT`` is the float in [0, 1) of a raw 64-bit draw ``x``.
_UNIT = 1.0 / (1 << 53)
# The hashed material of string labels :func:`derive_seed` has seen: a
# campaign build derives the same few labels thousands of times.  Bounded,
# since callers may pass any string (program names, custom workloads).
_LABEL_MATERIAL: Dict[str, int] = {}


def _splitmix64(value: int) -> int:
    """One splitmix64 step; used to spread user seeds over 64 bits."""
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    Components each get their own stream: for example the program generator
    uses ``derive_seed(seed, "program")`` while wrong-path branch outcomes use
    ``derive_seed(seed, "wrongpath")``.  String labels are hashed bytewise so
    the derivation does not depend on Python's randomized ``hash()``.
    """
    state = _splitmix64(base_seed & _MASK64)
    for label in labels:
        if isinstance(label, int):
            material = label & _MASK64
        else:
            text = str(label)
            material = _LABEL_MATERIAL.get(text)
            if material is None:
                material = 0
                for byte in text.encode("utf-8"):
                    material = (material * 131 + byte) & _MASK64
                if len(_LABEL_MATERIAL) < 1024:
                    _LABEL_MATERIAL[text] = material
        state = _splitmix64(state ^ material)
    # A zero state would trap xorshift at zero forever.
    return state or _SPLITMIX_GAMMA


def draw_threshold(probability: float, scale: float = 1.0) -> int:
    """The raw-draw cut-off of the test ``random() * scale < probability``.

    A raw draw ``x`` of :meth:`XorShiftRNG.next_u64` becomes ``random()``
    as ``(x >> 11) * 2**-53``; times ``scale`` that never falls as ``x``
    grows, so the draws passing the test are exactly those below one
    cut-off, found here by bisection over the 2**53 values ``random()``
    can take.  ``rng.chance(p)`` is therefore ``rng.next_u64() <
    draw_threshold(p)``: a hot caller with a fixed probability compares
    integers instead of converting every draw to a float.
    """
    low, high = 0, 1 << 53
    while low < high:
        middle = (low + high) >> 1
        if middle * _UNIT * scale < probability:
            low = middle + 1
        else:
            high = middle
    return low << 11


def weighted_thresholds(weights: Sequence[float]) -> Tuple[int, ...]:
    """Raw-draw cut-offs of a weighted draw over a fixed weight table.

    A weighted draw picks the first item whose running weight sum
    exceeds ``random() * total``; with these cut-offs that is item
    ``bisect_right(cuts, x)`` of a raw draw ``x``.  The last cut-off
    lies past every draw, so an item is always picked.
    """
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("weights must sum to a positive value")
    cuts = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight
        cuts.append(draw_threshold(cumulative, total))
    cuts[-1] = 1 << 64
    return tuple(cuts)


def derive_thread_seed(base_seed: int, thread_id: int) -> int:
    """Derive hardware-thread ``thread_id``'s seed from a mix's base seed.

    Splitmix-style hashing (via :func:`derive_seed` with a dedicated
    domain label) guarantees the per-thread streams are decorrelated even
    for adjacent thread ids and never collide with the component labels
    other subsystems derive from the same base — two copies of one
    benchmark in a multi-program mix get genuinely different program
    instances and behaviour streams.
    """
    if thread_id < 0:
        raise ValueError(f"thread_id must be non-negative, got {thread_id}")
    return derive_seed(base_seed, "hw-thread", thread_id)


class XorShiftRNG:
    """A tiny deterministic RNG (xorshift64*) with simulation helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = derive_seed(seed)

    # The xorshift64* step is inlined into every helper below: generation
    # and branch-behaviour streams draw tens of millions of values per
    # campaign, and the extra call frames of helper-over-helper layering
    # were a measurable slice of program-generation time.  The arithmetic
    # is identical in every method, so the draw sequences are unchanged.

    def next_u64(self) -> int:
        """Return the next raw 64-bit value."""
        state = self._state
        state ^= state >> 12
        state ^= (state & 0x7FFFFFFFFF) << 25  # (state << 25) & _MASK64
        state ^= state >> 27
        self._state = state
        return state * 0x2545F4914F6CDD1D & 0xFFFFFFFFFFFFFFFF

    def random(self) -> float:
        """Return a float uniformly distributed in [0, 1)."""
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in [low, high] inclusive."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return low + ((state * 0x2545F4914F6CDD1D) & _MASK64) % (high - low + 1)

    def choice(self, items):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return items[((state * 0x2545F4914F6CDD1D) & _MASK64) % len(items)]

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return (
            (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (1.0 / (1 << 53))
            < probability
        )


def stateless_hash_step(state: int, value: int) -> int:
    """One splitmix64 chaining step of a stateless random source.

    Chaining steps from a seed over a tuple of values gives a pure
    function of those values: wrong-path branch outcomes and BPRU
    confidence draws use it so speculative fetch never perturbs
    true-path behavioural state.  Hot callers with a fixed prefix (a
    static instruction's address, a block id) precompute the partial
    state and pay a single step per draw.
    """
    state = (state ^ (value & _MASK64)) + _SPLITMIX_GAMMA & _MASK64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state ^ (state >> 31)
