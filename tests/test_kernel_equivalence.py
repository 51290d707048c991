"""Property test: the stage kernel matches pinned goldens with and without cycle skip.

Randomized micro-programs (drawn program shapes and seeds) on randomized
core geometries are run through the stage kernel with the cycle-skip
fast-forward on and off, and every observable — the committed
instruction sequence, the squash sequence, the full statistics
dictionary, the probe groups, the power ledgers — must match the digest
pinned for that trial in ``goldens/kernel_equivalence_fingerprints.json``.
A fingerprint over the canonical JSON of the whole payload guards
anything the per-key digests miss.

The commit and squash sequences come from a pipetrace
(:class:`repro.tracing.PipelineTracer`), and attaching one binds the
checked stepper.  So each (trial, skip) case runs twice: traced, for
the whole payload and its fingerprint, and untraced on the trial's
drawn stepper (plain ``step`` unless the draw sanitizes or
instruments), for every key but the two event sequences.  The golden parity sweep (``test_stage_kernel_parity.py``)
pins the shipped benchmark generators; these trials cover shapes and
geometries those never reach.

Each trial is deterministic (the trial seed fixes the program, the
geometry and the mechanism), so a failure reproduces by running its
trial id alone.  Regenerate the goldens (only legitimate when a PR
deliberately changes simulator behaviour, never for a pure refactor)::

    PYTHONPATH=src python tests/test_kernel_equivalence.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import replace
from typing import Dict

import pytest

from repro.experiments.engine import make_controller
from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.program.generator import ProgramGenerator, ProgramShape
from repro.smt.core import SmtProcessor
from repro.smt.policies import make_fetch_policy
from repro.tracing import PipelineTracer

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "kernel_equivalence_fingerprints.json"
)

_TRIALS = tuple(range(8))
_INSTRUCTIONS = 1200
_WARMUP = 300
_CYCLE_SKIP_MODES = (True, False)
# The payload keys only a traced run produces.
_EVENT_KEYS = ("commits", "squashes")
# Far above any trial's retired-instruction count: the recorder keeps
# every record.
_EVENT_CAPACITY = 1 << 24

# Mechanisms drawn per trial: the empty baseline, a fetch-gating
# throttle (exercises throttled-cycle accounting), the strongest
# selection throttle, pipeline gating, and the fetch oracle (exercises
# the cycle-skip fast-forward's oracle mode).
_MECHANISMS = (
    None,
    ("throttle", "A2"),
    ("throttle", "C2"),
    ("gating", 2),
    ("oracle", "fetch"),
)


def _draw_shape(rng: random.Random) -> ProgramShape:
    """A compact randomized program shape (micro-program generator)."""
    return ProgramShape(
        num_functions=rng.randint(2, 5),
        blocks_per_function=(4, rng.randint(6, 12)),
        block_size=(2, rng.randint(4, 9)),
        p_cond=rng.uniform(0.4, 0.75),
        p_call=rng.uniform(0.02, 0.10),
        p_jump=rng.uniform(0.02, 0.12),
        loop_fraction=rng.uniform(0.15, 0.45),
        w_bad=rng.uniform(0.02, 0.20),
        w_random=rng.uniform(0.0, 0.06),
        serial_chain_fraction=rng.uniform(0.2, 0.6),
        load_chain_fraction=rng.uniform(0.2, 0.6),
        branch_load_dependence=rng.uniform(0.3, 0.8),
    )


def _draw_config(rng: random.Random):
    """A randomized core geometry on top of the Table-3 baseline."""
    base = table3_config().with_depth(rng.choice((6, 14, 28)))
    rob = rng.choice((32, 64, 128))
    return replace(
        base,
        rob_size=rob,
        iq_size=max(16, rob // 2),
        lsq_size=max(16, rob // 2),
        fetch_width=rng.choice((4, 8)),
        issue_width=rng.choice((4, 8)),
        max_taken_branches_per_cycle=rng.choice((1, 2)),
        # One trial in four runs under sanitize and/or telemetry, so the
        # checked stepper (with each hook, and its fast-forward path)
        # gets property coverage beside ``step``.
        sanitize=rng.random() < 0.25,
        telemetry=rng.random() < 0.25,
    )


class _CommitRecorder:
    """Pipetrace consumer collecting the committed and squashed event
    sequences of a run, or nothing for an untraced run."""

    def __init__(self, processor, traced: bool) -> None:
        self.tracer = None
        if traced:
            self.tracer = PipelineTracer(capacity=_EVENT_CAPACITY)
            processor.attach_tracer(self.tracer)

    def events(self) -> Dict:
        """``commits``/``squashes`` in retirement order ({} untraced)."""
        if self.tracer is None:
            return {}
        commits = []
        squashes = []
        for trace in self.tracer.traces():
            if trace.squashed:
                squashes.append((
                    trace.seq, trace.pc, bool(trace.on_wrong_path),
                    trace.retire_cycle,
                ))
            else:
                commits.append((trace.seq, trace.pc, trace.retire_cycle))
        return {"commits": commits, "squashes": squashes}


def _probe_groups(processor):
    """The skip-independent probe groups of an instrumented run.

    The snapshot's ``skip`` block is deliberately excluded: it counts
    fast-forwarded cycles, which differ between ``cycle_skip`` on and off
    by construction, while every other group must match.
    """
    if processor.probes is None:
        return None
    snapshot = processor.probes.snapshot()
    return {
        "stages": snapshot["stages"],
        "occupancy": snapshot["occupancy"],
        "throttle_residency": snapshot["throttle_residency"],
        "threads": snapshot["threads"],
    }


def _digest(value) -> str:
    """SHA-256 over canonical JSON (``repr``-exact floats)."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _golden_entry(payload) -> Dict:
    """Per-key digests plus the whole-payload fingerprint of one run."""
    return {
        "keys": {key: _digest(value) for key, value in payload.items()},
        "fingerprint": _digest(payload),
    }


@functools.lru_cache(maxsize=1)
def _load_goldens() -> Dict[str, Dict]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["trials"]


def _assert_matches_golden(name: str, label: str, payload) -> None:
    """Compare one run to its pinned entry, first differing key first.

    A traced payload must match every key and the whole-payload
    fingerprint; an untraced one every key but the event sequences.
    """
    goldens = _load_goldens()
    assert name in goldens, f"no golden for {name}; regenerate deliberately"
    expected = goldens[name]
    actual = _golden_entry(payload)
    traced = _EVENT_KEYS[0] in payload
    expected_keys = set(expected["keys"])
    if not traced:
        expected_keys -= set(_EVENT_KEYS)
    assert set(actual["keys"]) == expected_keys, (
        f"{label}: payload keys differ from the pinned golden"
    )
    # Key order is the payload's: commits, squashes, stats, ... so a
    # divergence names the first differing observable.
    for key, digest in actual["keys"].items():
        assert digest == expected["keys"][key], (
            f"{label}: {key} diverges from the pinned golden"
        )
    if traced:
        assert actual["fingerprint"] == expected["fingerprint"], (
            f"{label}: full result payload diverges from the pinned golden"
        )


def _stats_summary(stats) -> dict:
    """The instruction-flow summary of a run's ``SimStats`` the goldens pin."""
    return {
        "cycles": stats.cycles,
        "committed": stats.committed,
        "ipc": stats.ipc,
        "fetched": stats.fetched,
        "fetched_wrong_path": stats.fetched_wrong_path,
        "squashed": stats.squashed,
        "cond_branches": stats.cond_branches_committed,
        "miss_rate": stats.branch_miss_rate,
        "spec": stats.confidence.spec(),
        "pvn": stats.confidence.pvn(),
    }


def _run_trial(trial: int, cycle_skip: bool, traced: bool = True):
    """One deterministic trial, with the fast-forward on or off."""
    rng = random.Random(0x5EED0 + trial)
    shape = _draw_shape(rng)
    config = replace(_draw_config(rng), cycle_skip=cycle_skip)
    spec = rng.choice(_MECHANISMS)
    program = ProgramGenerator(shape, seed=1000 + trial, name=f"prop{trial}").generate()
    controller = make_controller(spec) if spec is not None else None
    processor = Processor(config, program, controller=controller, seed=77 + trial)
    recorder = _CommitRecorder(processor, traced)
    stats = processor.run(_INSTRUCTIONS, warmup_instructions=_WARMUP)
    power = processor.power
    payload = {
        **recorder.events(),
        "stats": _stats_summary(stats),
        "cycles": processor.cycle,
        "probes": _probe_groups(processor),
        "total_energy": power.total_energy(),
        "wasted_energy": power.total_wasted_energy(),
        "average_power": power.average_power(),
        "breakdown": power.breakdown(),
        "thread_attribution": power.thread_attribution(),
    }
    return payload, spec


_RUN_MODES = tuple(
    (cycle_skip, traced)
    for cycle_skip in _CYCLE_SKIP_MODES
    for traced in (True, False)
)


@pytest.mark.parametrize("trial", _TRIALS)
def test_random_micro_programs_commit_identically(trial):
    for cycle_skip, traced in _RUN_MODES:
        payload, spec = _run_trial(trial, cycle_skip, traced)
        label = (
            f"trial {trial} ({spec or 'baseline'}, cycle_skip={cycle_skip}, "
            f"traced={traced})"
        )
        _assert_matches_golden(f"solo:{trial}", label, payload)


def test_trials_cover_every_mechanism_and_a_checked_stepper():
    """The drawn trials must actually exercise the interesting modes."""
    specs = set()
    checked = False
    for trial in _TRIALS:
        rng = random.Random(0x5EED0 + trial)
        _draw_shape(rng)
        config = _draw_config(rng)
        specs.add(rng.choice(_MECHANISMS))
        checked = checked or config.sanitize or config.telemetry
    assert len(specs) >= 3, "trial draws collapse onto too few mechanisms"
    assert checked, "no trial draws a sanitized or instrumented stepper"


def test_commits_are_observed_and_nonempty():
    payload, _ = _run_trial(0, True)
    assert len(payload["commits"]) >= _INSTRUCTIONS
    seqs = [seq for seq, _, _ in payload["commits"]]
    assert seqs == sorted(seqs), "commit sequence must be program-ordered"


# ---------------------------------------------------------------------------
# Adversarial shapes: the front end's edge cases.
#
# Wrong-path-heavy shapes (dense mispredictions) stress wrong-path packet
# fetch and its interaction with recovery; short-block-heavy shapes (1-2
# instruction blocks) put a branch in almost every fetch group, so
# packet boundaries, I-cache line crossings and redirects dominate.
# Each trial runs with the fast-forward on and off, and both runs must
# match the pinned golden bit for bit.
# ---------------------------------------------------------------------------

_ADVERSARIAL_TRIALS = tuple(range(6))
_ADVERSARIAL_STYLES = ("wrong-path-heavy", "short-block-heavy")


def _draw_adversarial_shape(rng: random.Random, style: str) -> ProgramShape:
    """A program shape aimed at the front end's edge cases."""
    if style == "wrong-path-heavy":
        # Dense, badly-predicted control flow: fetch spends much of its
        # time on wrong-path packets and recovery cuts them often.
        return ProgramShape(
            num_functions=rng.randint(2, 4),
            blocks_per_function=(4, rng.randint(6, 10)),
            block_size=(2, rng.randint(5, 10)),
            p_cond=rng.uniform(0.55, 0.72),
            p_call=rng.uniform(0.04, 0.10),
            p_jump=rng.uniform(0.02, 0.08),
            loop_fraction=rng.uniform(0.15, 0.40),
            w_bad=rng.uniform(0.30, 0.55),
            w_random=rng.uniform(0.08, 0.15),
            serial_chain_fraction=rng.uniform(0.2, 0.6),
            load_chain_fraction=rng.uniform(0.2, 0.6),
            branch_load_dependence=rng.uniform(0.4, 0.8),
        )
    # Short-block-heavy: every straight-line run is 1-2 instructions.
    return ProgramShape(
        num_functions=rng.randint(2, 5),
        blocks_per_function=(5, rng.randint(8, 14)),
        block_size=(1, 2),
        p_cond=rng.uniform(0.50, 0.70),
        p_call=rng.uniform(0.03, 0.08),
        p_jump=rng.uniform(0.05, 0.12),
        loop_fraction=rng.uniform(0.2, 0.5),
        w_bad=rng.uniform(0.05, 0.25),
        w_random=rng.uniform(0.0, 0.08),
        serial_chain_fraction=rng.uniform(0.2, 0.6),
        load_chain_fraction=rng.uniform(0.2, 0.6),
        branch_load_dependence=rng.uniform(0.3, 0.8),
    )


def _adversarial_trial(trial: int, cycle_skip: bool, traced: bool = True):
    """One deterministic adversarial-shape trial."""
    rng = random.Random(0xBA7C4 + trial)
    style = _ADVERSARIAL_STYLES[trial % len(_ADVERSARIAL_STYLES)]
    shape = _draw_adversarial_shape(rng, style)
    config = replace(_draw_config(rng), cycle_skip=cycle_skip)
    spec = rng.choice(_MECHANISMS)
    program = ProgramGenerator(
        shape, seed=3000 + trial, name=f"batch{trial}"
    ).generate()
    controller = make_controller(spec) if spec is not None else None
    processor = Processor(config, program, controller=controller, seed=55 + trial)
    recorder = _CommitRecorder(processor, traced)
    stats = processor.run(_INSTRUCTIONS, warmup_instructions=_WARMUP)
    payload = {
        **recorder.events(),
        "stats": _stats_summary(stats),
        "cycles": processor.cycle,
        "probes": _probe_groups(processor),
        "total_energy": processor.power.total_energy(),
        "breakdown": processor.power.breakdown(),
    }
    return payload, (style, spec)


@pytest.mark.parametrize("trial", _ADVERSARIAL_TRIALS)
def test_adversarial_shapes_commit_identically(trial):
    for cycle_skip, traced in _RUN_MODES:
        payload, (style, spec) = _adversarial_trial(trial, cycle_skip, traced)
        label = (
            f"adversarial trial {trial} ({style}, {spec or 'baseline'}, "
            f"cycle_skip={cycle_skip}, traced={traced})"
        )
        _assert_matches_golden(f"adversarial:{trial}", label, payload)


def test_adversarial_trials_cover_both_styles_and_wrong_path_density():
    """The adversarial draws must hit both styles and real mispredicts."""
    styles = {
        _ADVERSARIAL_STYLES[trial % len(_ADVERSARIAL_STYLES)]
        for trial in _ADVERSARIAL_TRIALS
    }
    assert styles == set(_ADVERSARIAL_STYLES)
    payload, _ = _adversarial_trial(0, True)
    assert payload["stats"]["fetched_wrong_path"] > 0, (
        "the wrong-path-heavy shape must actually fetch wrong-path work"
    )


# ---------------------------------------------------------------------------
# SMT equivalence: the fast-forward's machine-wide quiescence rules.
#
# A 2-thread core must match its pinned golden bit for bit with the
# fast-forward on and off — including per-thread attribution, controller
# counters, the policy's gated-cycle counters and the probe bus's
# throttle-level residency.  Mechanism, fetch policy and stepper variant
# are assigned round-robin over the trials so every interesting
# combination is guaranteed coverage (no draw collapse).
# ---------------------------------------------------------------------------

_SMT_TRIALS = tuple(range(6))
_SMT_MECHANISMS = (None, ("throttle", "C2"), ("throttle", "A2"), ("gating", 2))
_SMT_POLICIES = ("round-robin", "icount", "confidence-gating")


def _run_smt_trial(trial: int, cycle_skip: bool, traced: bool = True):
    """One deterministic 2-thread trial."""
    rng = random.Random(0x5A1D0 + trial)
    shapes = (_draw_shape(rng), _draw_shape(rng))
    config = replace(
        _draw_config(rng),
        cycle_skip=cycle_skip,
        # Deterministic stepper coverage: half the trials instrumented,
        # a third sanitized (trial 5 runs both).
        telemetry=trial % 2 == 1,
        sanitize=trial % 3 == 2,
    )
    spec = _SMT_MECHANISMS[trial % len(_SMT_MECHANISMS)]
    policy = _SMT_POLICIES[trial % len(_SMT_POLICIES)]
    programs = [
        ProgramGenerator(
            shape, seed=2000 + 10 * trial + index, name=f"smt{trial}t{index}"
        ).generate()
        for index, shape in enumerate(shapes)
    ]
    controllers = (
        [make_controller(spec) for _ in programs] if spec is not None else None
    )
    processor = SmtProcessor(
        config,
        programs,
        seeds=[88 + trial, 880 + trial],
        controllers=controllers,
        fetch_policy=make_fetch_policy(policy),
    )
    recorder = _CommitRecorder(processor, traced)
    stats = processor.run(_INSTRUCTIONS, warmup_instructions=_WARMUP)
    power = processor.power
    payload = {
        **recorder.events(),
        "stats": _stats_summary(stats),
        "cycles": processor.cycle,
        "threads": [
            {
                "committed": thread.committed,
                "fetched": thread.fetched,
                "fetched_wrong_path": thread.fetched_wrong_path,
                "squashed": thread.squashed,
                "policy_gated_cycles": thread.policy_gated_cycles,
            }
            for thread in processor.threads
        ],
        "controllers": [
            getattr(thread.controller, "gated_cycles", None)
            for thread in processor.threads
        ],
        "probes": _probe_groups(processor),
        "total_energy": power.total_energy(),
        "wasted_energy": power.total_wasted_energy(),
        "average_power": power.average_power(),
        "breakdown": power.breakdown(),
        "thread_attribution": power.thread_attribution(),
    }
    return payload, (spec, policy)


@pytest.mark.parametrize("trial", _SMT_TRIALS)
def test_random_smt_micro_programs_commit_identically(trial):
    for cycle_skip, traced in _RUN_MODES:
        payload, (spec, policy) = _run_smt_trial(trial, cycle_skip, traced)
        label = (
            f"smt trial {trial} ({spec or 'baseline'}, {policy}, "
            f"cycle_skip={cycle_skip}, traced={traced})"
        )
        _assert_matches_golden(f"smt:{trial}", label, payload)


def test_smt_trials_cover_mechanisms_policies_and_checked_steppers():
    """The round-robin assignment must hit the modes that matter."""
    combos = set()
    telemetry = sanitize = False
    for trial in _SMT_TRIALS:
        spec = _SMT_MECHANISMS[trial % len(_SMT_MECHANISMS)]
        policy = _SMT_POLICIES[trial % len(_SMT_POLICIES)]
        combos.add((spec, policy))
        telemetry = telemetry or trial % 2 == 1
        sanitize = sanitize or trial % 3 == 2
    mechanisms = {spec for spec, _ in combos}
    policies = {policy for _, policy in combos}
    assert ("gating", 2) in mechanisms, "pipeline gating must be exercised"
    assert ("throttle", "C2") in mechanisms, "C2 throttling must be exercised"
    assert "confidence-gating" in policies, "the gating policy must be exercised"
    assert telemetry and sanitize, "both checked-stepper hooks must be exercised"


def _regenerate() -> None:
    """Record every trial with the fast-forward off (the stepped path)."""
    trials: Dict[str, Dict] = {}
    for trial in _TRIALS:
        trials[f"solo:{trial}"] = _golden_entry(_run_trial(trial, False)[0])
    for trial in _ADVERSARIAL_TRIALS:
        trials[f"adversarial:{trial}"] = _golden_entry(
            _adversarial_trial(trial, False)[0]
        )
    for trial in _SMT_TRIALS:
        trials[f"smt:{trial}"] = _golden_entry(_run_smt_trial(trial, False)[0])
    payload = {
        "description": (
            "Bit-exact per-observable digests of the randomized kernel "
            "equivalence trials, recorded with cycle skip off; the stage "
            "kernel must reproduce every digest with cycle skip on and off. "
            "Regenerate only when a change deliberately alters simulator "
            "behaviour."
        ),
        "instructions": _INSTRUCTIONS,
        "warmup": _WARMUP,
        "trials": trials,
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(trials)} trial entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
