"""SMT fetch policies: who fetches this cycle.

An SMT front-end has one fetch port; every cycle a policy picks the thread
that uses it.  Three policies are modelled:

* :class:`RoundRobinPolicy` — rotate over eligible threads (the classic
  baseline; blind to pipeline state).
* :class:`ICountPolicy` — Tullsen et al.'s ICOUNT: fetch the thread with
  the fewest pre-issue instructions in flight, which starves threads that
  clog the window.
* :class:`ConfidenceGatingPolicy` — the paper's throttling signal applied
  to thread selection: each thread's count of in-flight low-confidence
  branches maps onto a :class:`~repro.core.levels.BandwidthLevel` (the
  §4.1 throttling levels reused as per-thread fetch bandwidth), gating the
  thread's fetch slots; among the threads still active this cycle, the one
  with the fewest low-confidence branches (ICOUNT tie-break) wins.  A
  thread speculating down many unreliable branches loses fetch slots to
  its co-runners instead of filling the shared window with wasted work.

Eligibility is policy-independent: a thread stalled on a redirect or an
I-cache miss, with a full front-end buffer, behind a closed controller
fetch gate, or blocked past a misprediction under an oracle controller
cannot use the slot.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.levels import ACTIVE_WHEEL_MASKS, BandwidthLevel
from repro.errors import ConfigurationError


class FetchPolicy:
    """Picks the thread that owns the fetch port each cycle.

    ``pick`` makes one pass over the threads in rotation order — thread
    ``cycle % N`` first, then ``cycle + 1``, and so on — testing
    eligibility from plain thread slots and keeping the best-ranked
    eligible thread by strict comparison, so that among equally ranked
    threads the first in rotation order wins.  The policies differ only
    in the rank: none (round-robin), pre-issue occupancy (ICOUNT), or
    doubtful branches then occupancy behind a per-thread duty cycle
    (confidence gating).  Eligibility is tested for every thread, winner
    found or not: a gating controller's ``fetch_allowed`` counts its
    gated cycles, so it is consulted every cycle for each thread that is
    neither stalled nor full.
    """

    name = "abstract"

    # Rank eligible threads by pre-issue instructions in flight (front-end
    # latches plus issue queue), fewest first.
    ranks_in_flight = False
    # Confidence gating only: the fetch activity wheel of each in-flight
    # low-confidence branch count below the STALL threshold (counts from
    # there on never fetch); such threads rank by that count first.
    wheel_masks: Optional[Tuple[int, ...]] = None

    def pick(self, processor, cycle: int):
        """Return the :class:`~repro.pipeline.processor.ThreadContext` that
        fetches on ``cycle``, or None if no thread may."""
        threads = processor.threads
        start = cycle % len(threads)
        ranks_in_flight = self.ranks_in_flight
        wheel_masks = self.wheel_masks
        phase = cycle & 3
        winner = None
        best_lowconf = best_in_flight = 0
        for index in range(start - len(threads), start):
            thread = threads[index]
            if cycle < thread.fetch_stall_until:
                continue
            fetch_latch = thread.fetch_latch
            decode_latch = thread.decode_latch
            front_end = (
                len(fetch_latch.instrs) - fetch_latch.head
                + len(decode_latch.instrs) - decode_latch.head
            )
            if front_end >= thread.fetch_buffer:
                continue
            if thread.ctrl_gates_fetch and not thread.controller.fetch_allowed(cycle):
                # A throttled thread must not win (and waste) the shared port.
                continue
            if thread.ctrl_blocks_wp_fetch and thread.fetch_mode == "wrong":
                continue
            lowconf = in_flight = 0
            if wheel_masks is not None:
                lowconf = thread.lowconf_inflight
                if lowconf >= len(wheel_masks) or not (wheel_masks[lowconf] >> phase) & 1:
                    thread.policy_gated_cycles += 1
                    continue
            if ranks_in_flight:
                in_flight = front_end + thread.iq.count
            if (
                winner is None
                or lowconf < best_lowconf
                or (lowconf == best_lowconf and in_flight < best_in_flight)
            ):
                winner = thread
                best_lowconf = lowconf
                best_in_flight = in_flight
        return winner


class RoundRobinPolicy(FetchPolicy):
    """Rotate the fetch port over eligible threads, one per cycle."""

    name = "round-robin"


class ICountPolicy(FetchPolicy):
    """Fetch the thread with the fewest pre-issue instructions in flight."""

    name = "icount"
    ranks_in_flight = True


class ConfidenceGatingPolicy(FetchPolicy):
    """Deprioritise and gate threads with many low-confidence branches.

    ``THRESHOLDS`` maps the in-flight low-confidence branch count onto the
    paper's bandwidth levels: below ``THRESHOLDS[0]`` a thread runs at FULL
    bandwidth, then HALF, then QUARTER, and at ``THRESHOLDS[2]`` or more it
    STALLs until some of its doubtful branches resolve.  The level's
    4-cycle activity wheel decides whether the thread may compete for the
    port this cycle (exactly how the single-thread throttler spaces fetch
    cycles); an eligible thread its level idles counts a
    ``policy_gated_cycles``.  The priority among active threads is fewest
    doubtful branches first, ICOUNT as the tie-break.
    """

    name = "confidence-gating"
    ranks_in_flight = True
    THRESHOLDS = (1, 2, 4)

    def __init__(self) -> None:
        self.wheel_masks = tuple(
            ACTIVE_WHEEL_MASKS[self.level_for(count)]
            for count in range(self.THRESHOLDS[2])
        )

    def level_for(self, lowconf_inflight: int) -> BandwidthLevel:
        """The fetch bandwidth level of a thread with this many doubtful
        in-flight branches."""
        half, quarter, stall = self.THRESHOLDS
        if lowconf_inflight >= stall:
            return BandwidthLevel.STALL
        if lowconf_inflight >= quarter:
            return BandwidthLevel.QUARTER
        if lowconf_inflight >= half:
            return BandwidthLevel.HALF
        return BandwidthLevel.FULL


_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    ICountPolicy.name: ICountPolicy,
    ConfidenceGatingPolicy.name: ConfidenceGatingPolicy,
}

POLICY_NAMES = tuple(sorted(_POLICIES))


def make_fetch_policy(name: str) -> FetchPolicy:
    """Instantiate a fetch policy by name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown fetch policy {name!r}; known: {', '.join(POLICY_NAMES)}"
        ) from None
