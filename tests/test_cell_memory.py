"""A cell's host cost is only what it simulates.

Two properties keep a sweep of short cells from drowning in collector
work:

* **Zero garbage.**  A finished cell's machine is freed by reference
  counting alone: ``simulate``/``simulate_smt`` close the processor,
  which drops the scheduler, the bound stepper, the tracer and the probe
  bus — every back-reference to the kernel.  With the collector off, a
  collection after any kind of cell must find nothing.
* **First touch.**  Cache sets and BTB sets start as the shared empty
  tuple and become lists on their first insert, so a fresh hierarchy is
  O(1) tracked objects; behaviour must equal a list-of-lists model.
"""

from __future__ import annotations

import gc
import random
from dataclasses import replace

import pytest

from repro.bpred.btb import BranchTargetBuffer
from repro.errors import SimulationError
from repro.experiments.engine import (
    build_processor,
    make_cell,
    make_smt_cell,
    simulate,
    simulate_smt,
)
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import table3_config
from repro.tracing import PipelineTracer

_INSTRUCTIONS = 1200
_WARMUP = 300


def _cell(spec, **config):
    return make_cell(
        "go", spec, config=replace(table3_config(), **config),
        instructions=_INSTRUCTIONS, warmup=_WARMUP,
    )


def _smt_cell(**config):
    return make_smt_cell(
        "mix2-branchy", config=replace(table3_config(), **config),
        instructions=600, warmup=200,
    )


def _pipetrace_run():
    cell = _cell(("throttle", "C2"))
    processor = build_processor(cell)
    tracer = PipelineTracer(capacity=2_000)
    processor.attach_tracer(tracer)
    processor.run(cell.instructions, warmup_instructions=cell.warmup)
    processor.close()
    assert tracer.traces()


_RUNS = {
    "baseline": lambda: simulate(_cell(("baseline",))),
    "C2": lambda: simulate(_cell(("throttle", "C2"))),
    "gating": lambda: simulate(_cell(("gating", 1))),
    "smt": lambda: simulate_smt(_smt_cell()),
    "pipetrace": _pipetrace_run,
    "sanitized": lambda: simulate(_cell(("throttle", "C2"), sanitize=True)),
    "sanitized-smt": lambda: simulate_smt(_smt_cell(sanitize=True)),
    "telemetry": lambda: simulate(_cell(("throttle", "C2"), telemetry=True)),
    "telemetry-smt": lambda: simulate_smt(_smt_cell(telemetry=True)),
}


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_zero_garbage_cell_leaves_no_cyclic_garbage(kind):
    run = _RUNS[kind]
    # The first run fills the program memo and the lazily compiled block
    # tables; the second must build and free a whole machine on its own.
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_closed_processor_keeps_its_results_and_refuses_to_step():
    cell = _cell(("throttle", "C2"), telemetry=True)
    processor = build_processor(cell)
    stats = processor.run(cell.instructions, warmup_instructions=cell.warmup)
    committed = stats.committed
    processor.close()
    assert processor.scheduler is None
    assert processor.probes is None
    assert processor.stats.committed == committed
    assert processor.power.total_energy() > 0
    with pytest.raises(SimulationError, match="closed"):
        processor.run(1)


# --- first-touch tables -----------------------------------------------------

class _ReferenceCache:
    """The list-of-lists LRU cache the first-touch sets must equal."""

    def __init__(self, num_sets: int, ways: int, line_bytes: int) -> None:
        self.sets = [[] for _ in range(num_sets)]
        self.ways = ways
        self.shift = line_bytes.bit_length() - 1

    def access(self, address: int) -> str:
        line = address >> self.shift
        tag_set = self.sets[line % len(self.sets)]
        if line in tag_set:
            tag_set.remove(line)
            tag_set.insert(0, line)
            return "hit"
        tag_set.insert(0, line)
        if len(tag_set) > self.ways:
            tag_set.pop()
            return "evict"
        return "miss"


def _outcome(cache: Cache, address: int) -> str:
    """``access``'s hit or miss; a miss into a full set evicts."""
    tag_set = cache._sets[(address >> cache._offset_bits) & cache._set_mask]
    full = len(tag_set) == cache.ways
    if cache.access(address):
        return "hit"
    return "evict" if full else "miss"


def test_first_touch_cache_matches_list_of_lists_model():
    rng = random.Random(2003)
    cache = Cache("t", 4 * 1024, 4, 32)  # 32 sets x 4 ways
    reference = _ReferenceCache(cache.num_sets, 4, 32)
    lines = [rng.randrange(1 << 20) * 32 for _ in range(400)]
    outcomes = []
    for step in range(20_000):
        address = rng.choice(lines) + rng.randrange(32)
        expected = reference.access(address)
        assert _outcome(cache, address) == expected, step
        outcomes.append(expected)
    assert {"hit", "miss", "evict"} <= set(outcomes)
    for index, tag_set in enumerate(cache._sets):
        assert list(tag_set) == reference.sets[index]


def test_first_touch_btb_matches_list_of_lists_model():
    rng = random.Random(2003)
    btb = BranchTargetBuffer(64, 2)  # 32 sets x 2 ways
    reference = [[] for _ in range(btb.sets)]
    pcs = [rng.randrange(1 << 16) * 4 for _ in range(200)]
    hits = 0
    for step in range(20_000):
        pc = rng.choice(pcs)
        entry_set = reference[(pc >> 2) % btb.sets]
        tag = pc >> (2 + btb.sets.bit_length() - 1)
        match = next((e for e in entry_set if e[0] == tag), None)
        if rng.random() < 0.6:
            expected = None
            if match is not None:
                entry_set.remove(match)
                entry_set.insert(0, match)
                expected = match[1]
                hits += 1
            assert btb.lookup(pc) == expected, step
        else:
            target = rng.randrange(1 << 16)
            if match is not None:
                entry_set.remove(match)
            entry_set.insert(0, (tag, target))
            del entry_set[btb.ways:]
            btb.update(pc, target)
    assert hits > 0
    for index, entry_set in enumerate(btb._table):
        assert list(entry_set) == reference[index]


def test_a_fresh_hierarchy_allocates_constant_tracked_objects():
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        memory = MemoryHierarchy()
        btb = BranchTargetBuffer(1024, 2)
        allocated = len(gc.get_objects()) - before
    finally:
        gc.enable()
    sets = memory.icache.num_sets + memory.dcache.num_sets + memory.l2.num_sets
    assert sets + btb.sets == 6_656
    assert allocated < 32, allocated
