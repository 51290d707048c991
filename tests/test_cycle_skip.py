"""The next-event cycle-skip engine and its satellites.

The kernel-equivalence goldens (``test_kernel_equivalence.py``) prove a
skipping run and a stepped run both match the pinned per-trial digests;
this file tests the machinery underneath and around it:

* the controller ``next_active_cycle`` / ``close_gated_window`` contract
  (O(1) wheel probes, side-effect-free probing, batched side effects);
* skip-on vs skip-off bit-identity through ``ProcessorConfig.cycle_skip``
  on the gated and SMT configurations the old quiescence detector had to
  bypass, and on blocked machines (full ROB/IQ/LSQ, loads waiting for an
  MSHR, latch heads in transit) whose windows the probe bus counts;
* probe-bus reconciliation across skipped windows (stall/throttle
  counters, throttle residency, the skip histogram);
* the result cache's in-memory LRU tier and size-bounded disk eviction.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.gating import PipelineGatingController
from repro.core.levels import (
    ACTIVE_WHEEL_MASKS,
    NEVER_ACTIVE,
    BandwidthLevel,
    next_wheel_active,
)
from repro.core.oracle import OracleController, OracleMode
from repro.core.policy import experiment_policy
from repro.core.throttler import SelectiveThrottler
from repro.errors import ExperimentError
from repro.experiments.engine import ResultCache, make_cell, make_controller
from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.program.generator import ProgramGenerator, ProgramShape
from repro.smt.core import SmtProcessor
from repro.smt.policies import make_fetch_policy

_INSTRUCTIONS = 1_500
_WARMUP = 300


# ---------------------------------------------------------------------------
# The wheel helper and the controller contract
# ---------------------------------------------------------------------------

def test_next_wheel_active_matches_the_per_cycle_probe():
    for mask in ACTIVE_WHEEL_MASKS:
        for cycle in range(17):
            expected = NEVER_ACTIVE
            if mask:
                probe = cycle
                while not (mask >> (probe & 3)) & 1:
                    probe += 1
                expected = probe
            assert next_wheel_active(mask, cycle) == expected


def test_throttler_next_active_cycle_matches_fetch_allowed():
    throttler = SelectiveThrottler(experiment_policy("C2"))
    level = BandwidthLevel.QUARTER
    throttler._fetch_level = level
    throttler._fetch_mask = ACTIVE_WHEEL_MASKS[level]
    for cycle in range(12):
        at = throttler.next_active_cycle(cycle)
        assert at >= cycle
        assert throttler.fetch_allowed(at)
        for probe in range(cycle, at):
            assert not throttler.fetch_allowed(probe)


def test_gating_controller_probe_is_pure_and_batch_close_counts():
    controller = PipelineGatingController(gating_threshold=2)
    controller._outstanding = 3  # gated
    before = controller.gated_cycles
    assert controller.next_active_cycle(100) == NEVER_ACTIVE
    assert controller.gated_cycles == before, "the probe must be side-effect free"
    assert not controller.fetch_allowed(100)
    assert controller.gated_cycles == before + 1, "the stepped path still counts"
    controller.close_gated_window(7)
    assert controller.gated_cycles == before + 8, "the batch close replays probes"
    controller._outstanding = 1  # open
    assert controller.next_active_cycle(200) == 200


# ---------------------------------------------------------------------------
# Skip-on vs skip-off bit-identity (the cycle_skip switch)
# ---------------------------------------------------------------------------

def _program(seed: int, name: str):
    return ProgramGenerator(ProgramShape(), seed=seed, name=name).generate()


# A blocked machine: long misses behind a single MSHR and small windows,
# so the ROB/IQ/LSQ fill, the front-end latches back up and ready loads
# wait for the MSHR.  The skip must fast-forward these stalls too.
_BLOCKED = dict(memory_latency=400, mshr_count=1, rob_size=32, iq_size=16, lsq_size=8)


def _config(cycle_skip: bool, telemetry, geometry):
    """Table 3 with ``geometry``; ``telemetry=None`` keeps the
    REPRO_TELEMETRY default, so CI can run these under the probe bus."""
    config = replace(table3_config(), cycle_skip=cycle_skip, **geometry)
    if telemetry is not None:
        config = replace(config, telemetry=telemetry)
    return config


def _counters(stats) -> dict:
    """Every ``SimStats`` counter, the stall and throttle ones included
    (``as_dict`` summarises only the instruction flow)."""
    return {
        name: getattr(stats, name)
        for name in type(stats).__slots__
        if name != "confidence"
    }


def _blocked_windows(processor) -> int:
    return processor.probes.snapshot()["skip"]["blocked_windows"]


def _probes_without_skip(processor) -> dict:
    """The probe snapshot minus its ``skip`` block, which only a
    skipping run fills; every other counter must match a stepped run."""
    snapshot = processor.probes.snapshot()
    del snapshot["skip"]
    return snapshot


def _solo_observables(spec, cycle_skip: bool, telemetry=None, geometry=()):
    config = _config(cycle_skip, telemetry, dict(geometry))
    controller = make_controller(spec) if spec is not None else None
    processor = Processor(
        config, _program(11, "skipab"), controller=controller, seed=5
    )
    stats = processor.run(_INSTRUCTIONS, warmup_instructions=_WARMUP)
    return processor, {
        "stats": stats.as_dict(),
        "counters": _counters(stats),
        "cycles": processor.cycle,
        "gated": getattr(controller, "gated_cycles", None),
        "energy": processor.power.total_energy(),
        "breakdown": processor.power.breakdown(),
    }


def _smt_observables(
    spec, policy: str, cycle_skip: bool, telemetry=None, geometry=(),
    nthreads: int = 2, sharing: str = "partitioned",
    instructions: int = _INSTRUCTIONS, warmup: int = _WARMUP,
):
    config = _config(cycle_skip, telemetry, dict(geometry))
    programs = [
        _program(21 + index, f"skipsmt{'ABCD'[index]}") for index in range(nthreads)
    ]
    controllers = (
        [make_controller(spec) for _ in programs] if spec is not None else None
    )
    processor = SmtProcessor(
        config, programs, seeds=[31 + index for index in range(nthreads)],
        controllers=controllers, fetch_policy=make_fetch_policy(policy),
        sharing=sharing,
    )
    stats = processor.run(instructions, warmup_instructions=warmup)
    return processor, {
        "stats": stats.as_dict(),
        "counters": _counters(stats),
        "cycles": processor.cycle,
        "threads": [
            (thread.committed, thread.fetched, thread.squashed,
             thread.policy_gated_cycles)
            for thread in processor.threads
        ],
        "gated": [
            getattr(thread.controller, "gated_cycles", None)
            for thread in processor.threads
        ],
        "energy": processor.power.total_energy(),
        "attribution": processor.power.thread_attribution(),
    }


@pytest.mark.parametrize("spec", (
    None, ("throttle", "C2"), ("throttle", "A2"), ("gating", 2),
    ("oracle", "fetch"), ("gating", 1), ("throttle", "A6"), ("throttle", "B5"),
))
def test_solo_skip_on_equals_skip_off(spec):
    _, on = _solo_observables(spec, cycle_skip=True)
    _, off = _solo_observables(spec, cycle_skip=False)
    assert on == off, f"{spec}: cycle_skip changed observable results"
    # The blocked machine under the probe bus, which counts the windows
    # that fast-forward a non-empty latch or ready list and scales its
    # occupancy sums across them.
    processor, on = _solo_observables(
        spec, cycle_skip=True, telemetry=True, geometry=_BLOCKED
    )
    stepped, off = _solo_observables(
        spec, cycle_skip=False, telemetry=True, geometry=_BLOCKED
    )
    assert on == off, f"{spec}: cycle_skip changed a blocked machine's results"
    assert _probes_without_skip(processor) == _probes_without_skip(stepped), (
        f"{spec}: cycle_skip changed a blocked machine's probe counters"
    )
    assert _blocked_windows(processor) > 0, f"{spec}: no blocked window skipped"


class _GatedFetchOracle(OracleController):
    """Fetch oracle that also gates fetch to half bandwidth (no shipped
    controller does both)."""

    def __init__(self) -> None:
        super().__init__(OracleMode.FETCH)
        self.probes = 0

    def fetch_allowed(self, cycle: int) -> bool:
        self.probes += 1
        return cycle & 1 == 0

    def next_active_cycle(self, cycle: int) -> int:
        return cycle + (cycle & 1)


def test_gating_wrong_path_blocking_solo_thread_runs_without_skip():
    runs = []
    for cycle_skip in (True, False):
        config = replace(table3_config(), cycle_skip=cycle_skip)
        controller = _GatedFetchOracle()
        processor = Processor(
            config, _program(11, "skipab"), controller=controller, seed=5
        )
        assert processor.scheduler._solo is None
        stats = processor.run(_INSTRUCTIONS, warmup_instructions=_WARMUP)
        runs.append((stats.as_dict(), processor.cycle, controller.probes))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("spec,policy", (
    (("throttle", "C2"), "confidence-gating"),
    (("gating", 2), "round-robin"),
    (None, "icount"),
))
def test_smt_skip_on_equals_skip_off(spec, policy):
    _, on = _smt_observables(spec, policy, cycle_skip=True)
    _, off = _smt_observables(spec, policy, cycle_skip=False)
    assert on == off, f"{spec}/{policy}: cycle_skip changed observable results"
    blocked = 0
    for nthreads in (2, 4):
        for sharing in ("partitioned", "shared"):
            shape = dict(
                geometry=_BLOCKED, nthreads=nthreads, sharing=sharing,
                instructions=120, warmup=40,
            )
            processor, on = _smt_observables(
                spec, policy, cycle_skip=True, telemetry=True, **shape
            )
            stepped, off = _smt_observables(
                spec, policy, cycle_skip=False, telemetry=True, **shape
            )
            label = f"{spec}/{policy}, {nthreads} threads {sharing}"
            assert on == off, (
                f"{label}: cycle_skip changed a blocked machine's results"
            )
            assert _probes_without_skip(processor) == _probes_without_skip(
                stepped
            ), f"{label}: cycle_skip changed a blocked machine's probe counters"
            blocked += _blocked_windows(processor)
    assert blocked > 0, f"{spec}/{policy}: no blocked window skipped"


# ---------------------------------------------------------------------------
# Probe reconciliation across skipped windows
# ---------------------------------------------------------------------------

def _assert_probes_reconcile(processor) -> dict:
    stats = processor.stats
    snapshot = processor.probes.snapshot()
    fetch = snapshot["stages"]["fetch"]
    assert snapshot["cycles"] == stats.cycles
    assert fetch["stall_redirect"] == stats.redirect_stall_cycles
    assert fetch["stall_throttle"] == stats.fetch_throttled_cycles
    assert fetch["instructions"] == stats.fetched
    assert snapshot["stages"]["commit"]["instructions"] == stats.committed
    residency = snapshot["throttle_residency"]
    assert sum(residency.values()) == stats.cycles * len(processor.threads)
    skip = snapshot["skip"]
    assert skip["windows"] == sum(skip["length_hist"].values())
    assert skip["skipped_cycles"] >= skip["windows"]
    return snapshot


def test_probe_totals_reconcile_on_gated_solo_run():
    processor, _ = _solo_observables(
        ("throttle", "C2"), cycle_skip=True, telemetry=True
    )
    snapshot = _assert_probes_reconcile(processor)
    assert snapshot["skip"]["skipped_cycles"] > 0, (
        "a C2 run must produce skippable fetch-gated windows"
    )


def test_probe_totals_reconcile_on_gating_controller_run():
    processor, _ = _solo_observables(("gating", 2), cycle_skip=True, telemetry=True)
    _assert_probes_reconcile(processor)


def test_probe_totals_reconcile_on_smt_run():
    processor, _ = _smt_observables(
        ("throttle", "C2"), "confidence-gating", cycle_skip=True, telemetry=True
    )
    _assert_probes_reconcile(processor)


# ---------------------------------------------------------------------------
# Result cache: in-memory LRU tier and size-bounded eviction
# ---------------------------------------------------------------------------

def _cache_cell(**overrides):
    defaults = dict(
        benchmark="gzip",
        controller_spec=("throttle", "A5"),
        instructions=_INSTRUCTIONS,
        warmup=_WARMUP,
    )
    defaults.update(overrides)
    return make_cell(**defaults)


@pytest.fixture(scope="module")
def cached_result():
    from repro.experiments.engine import simulate

    return simulate(_cache_cell())


def test_cache_memory_tier_returns_fresh_objects(tmp_path, cached_result):
    cache = ResultCache(str(tmp_path))
    cell = _cache_cell()
    cache.put(cell, cached_result)
    first = cache.get(cell)
    first.extra["fetch_throttled_cycles"] = -1  # caller mutates its copy
    second = cache.get(cell)
    assert second == cached_result, "cache hits must not share state"


def test_cache_prune_by_size_keeps_newest(tmp_path, cached_result):
    import os
    import time

    cache = ResultCache(str(tmp_path))
    cells = [
        _cache_cell(instructions=_INSTRUCTIONS + extra) for extra in range(3)
    ]
    for index, cell in enumerate(cells):
        cache.put(cell, cached_result)
        # Distinct mtimes make the LRU eviction order deterministic.
        entry = sorted(
            cache.entries(), key=lambda path: os.stat(path).st_mtime
        )[-1]
        os.utime(entry, (time.time() - 300 + index, time.time() - 300 + index))
    total = cache.info()["bytes"]
    entry_size = total // 3
    dropped = cache.prune(max_bytes=total - entry_size)
    assert dropped == 1
    assert cache.info()["entries"] == 2
    assert cache.evictions == 1
    # The oldest entry went; the newest survives.
    assert cache.get(cells[0]) is None
    assert cache.get(cells[2]) == cached_result
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_prune_requires_a_bound(tmp_path):
    cache = ResultCache(str(tmp_path))
    with pytest.raises(ExperimentError):
        cache.prune()
    assert cache.prune(max_bytes=0) == 0
