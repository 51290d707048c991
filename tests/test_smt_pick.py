"""SMT fetch arbitration against a reference copy of the original rule.

Every policy's ``pick`` is driven over seeded random thread states —
redirect stalls, latch fill around the fetch buffer, a gating controller
open and closed, the oracle's wrong-path wait, low-confidence counts at
each threshold, and ties on every ranking key — and must return the
thread the reference below returns, advancing the controllers'
``gated_cycles`` and the threads' ``policy_gated_cycles`` exactly as the
reference does.

The reference is the arbitration rule as first written: a policy-neutral
eligibility test over every thread, then ``min`` over the eligible ones
with a ``(rank..., rotation)`` key.
"""

from __future__ import annotations

import random

import pytest

from repro.core.gating import PipelineGatingController
from repro.core.oracle import OracleController, OracleMode
from repro.core.throttler import NullController
from repro.pipeline.config import table3_config
from repro.smt.core import SmtProcessor
from repro.smt.mixes import mix_spec
from repro.smt.policies import POLICY_NAMES, ConfidenceGatingPolicy, make_fetch_policy

_TRIALS = 400


def _reference_eligible(thread, cycle):
    if cycle < thread.fetch_stall_until:
        return False
    if len(thread.fetch_latch) + len(thread.decode_latch) >= thread.fetch_buffer:
        return False
    if not thread.controller.fetch_allowed(cycle):
        return False
    if thread.controller.blocks_wrong_path_fetch and thread.fetch_mode == "wrong":
        return False
    return True


def _in_flight(thread):
    return len(thread.fetch_latch) + len(thread.decode_latch) + thread.iq.count


def _reference_pick(policy, processor, cycle):
    """``(winner or None, the threads that competed, their rank key)``."""
    threads = processor.threads
    nthreads = len(threads)

    def rotation(thread):
        return (thread.thread_id - cycle) % nthreads

    if isinstance(policy, ConfidenceGatingPolicy):
        candidates = []
        for thread in threads:
            if not _reference_eligible(thread, cycle):
                continue
            if not policy.level_for(thread.lowconf_inflight).active(cycle):
                thread.policy_gated_cycles += 1
                continue
            candidates.append(thread)
        def rank(thread):
            return (thread.lowconf_inflight, _in_flight(thread))
    else:
        candidates = [
            thread for thread in threads if _reference_eligible(thread, cycle)
        ]
        if policy.name == "icount":
            def rank(thread):
                return (_in_flight(thread),)
        else:
            def rank(thread):
                return ()
    if not candidates:
        return None, candidates, rank
    winner = min(candidates, key=lambda thread: rank(thread) + (rotation(thread),))
    return winner, candidates, rank


def _controllers(count):
    kinds = (
        lambda: PipelineGatingController(1),
        lambda: OracleController(OracleMode.FETCH),
        NullController,
        lambda: PipelineGatingController(2),
    )
    return [kinds[index % len(kinds)]() for index in range(count)]


def _counters(processor):
    return [
        (thread.policy_gated_cycles, getattr(thread.controller, "gated_cycles", None))
        for thread in processor.threads
    ]


def _set_counters(processor, counters):
    for thread, (policy_gated, gated) in zip(processor.threads, counters):
        thread.policy_gated_cycles = policy_gated
        if gated is not None:
            thread.controller.gated_cycles = gated


def _fill(latch, rng, live):
    dead = rng.choice((0, 0, 1, 3))
    latch.instrs[:] = [None] * (dead + live)
    latch.stamps[:] = [0] * (dead + live)
    latch.head = dead


def _randomize(processor, rng):
    for thread in processor.threads:
        cycle_offset = rng.choice((-3, 0, 0, 0, 0, 1, 4, 0))
        thread.fetch_stall_until = max(0, processor.cycle + cycle_offset)
        # Latch fill mostly well below the fetch buffer, sometimes on
        # either side of it, split across the two latches.
        if rng.random() < 0.7:
            fill = rng.randint(0, 2)
        else:
            fill = rng.randint(thread.fetch_buffer - 2, thread.fetch_buffer + 1)
        split = rng.randint(0, fill)
        _fill(thread.fetch_latch, rng, split)
        _fill(thread.decode_latch, rng, fill - split)
        thread.iq.count = rng.randint(0, 2)
        # Below, at and between the (1, 2, 4) thresholds, and past them.
        thread.lowconf_inflight = rng.choice((0, 0, 0, 1, 1, 2, 3, 4, 5))
        thread.fetch_mode = "wrong" if rng.random() < 0.25 else "true"
        controller = thread.controller
        if isinstance(controller, PipelineGatingController):
            threshold = controller.gating_threshold
            controller._outstanding = rng.randint(threshold - 1, threshold + 1)


@pytest.mark.parametrize("nthreads", (2, 3, 4))
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_pick_matches_the_reference_rule(policy_name, nthreads):
    mix = mix_spec("mix4-diverse")
    programs = [spec.build_program() for spec in mix.thread_specs()][:nthreads]
    processor = SmtProcessor(
        table3_config(), programs, mix.thread_seeds()[:nthreads],
        controllers=_controllers(nthreads),
        fetch_policy=make_fetch_policy(policy_name),
        sharing="partitioned",
    )
    policy = processor.fetch_policy
    rng = random.Random(f"{policy_name}:{nthreads}")
    seen = {"none": 0, "tie": 0, "gated": 0, "policy_gated": 0}
    for trial in range(_TRIALS):
        cycle = rng.randint(0, 1 << 12)
        processor.cycle = cycle
        _randomize(processor, rng)
        before = _counters(processor)
        expected, candidates, rank = _reference_pick(policy, processor, cycle)
        expected_counters = _counters(processor)
        _set_counters(processor, before)
        actual = policy.pick(processor, cycle)
        assert actual is expected, f"trial {trial} at cycle {cycle}"
        assert _counters(processor) == expected_counters, f"trial {trial}"

        if expected is None:
            seen["none"] += 1
        elif any(
            rank(thread) == rank(expected)
            for thread in candidates if thread is not expected
        ):
            seen["tie"] += 1
        for (policy_gated, gated), (policy_gated_after, gated_after) in zip(
            before, expected_counters
        ):
            seen["policy_gated"] += policy_gated_after != policy_gated
            seen["gated"] += gated is not None and gated_after != gated
    # The random states reached every regime the rule distinguishes.
    assert seen["none"] and seen["tie"] and seen["gated"]
    if policy_name == "confidence-gating":
        assert seen["policy_gated"]
