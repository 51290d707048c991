"""The telemetry layer: probe bus, event stream, exports, runtime stats.

Four contracts under test:

* **Zero cost off, bit-identical on** — the telemetry flag selects the
  instrumented stepper at construction (never a per-cycle branch), is
  excluded from cache fingerprints, and an instrumented run commits the
  same instructions in the same cycles as a plain one.
* **Counter correctness** — the snapshot's stage counts are the
  kernel's own ``SimStats`` over the measured window, and the bus's
  throttle-residency histogram covers every one of those cycles on
  every thread.
* **Export round-trips** — JSONL written through the sink reads back
  equal and validates; the Prometheus exposition parses back to the
  aggregated counters; corrupt streams are named, not swallowed.
* **Runtime metrics** — the sweep scheduler publishes plan/batch/cache
  events, cache hit/miss/store/eviction counters survive process
  boundaries via the sidecar, and the stage timers attribute wall time.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.program.generator import ProgramGenerator
from repro.telemetry import events as tevents
from repro.telemetry.export import (
    counter_totals,
    read_events,
    to_prometheus,
    top_counters,
    validate_events,
)
from repro.telemetry.probes import ProbeBus

from tests.conftest import small_shape


@pytest.fixture(autouse=True)
def _clean_sink():
    """Detach every sink consumer around each test (module-level state)."""
    tevents.reset()
    yield
    tevents.reset()


def _parse_prometheus(text):
    """Metric name -> value, as a scraper reads the text exposition."""
    metrics = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        metrics[name] = int(value)
    return metrics


def _processor(seed=42, **overrides) -> Processor:
    program = ProgramGenerator(
        small_shape(), seed=seed, name="teleprog"
    ).generate()
    config = replace(table3_config(), **overrides)
    return Processor(config, program, seed=seed)


# ----------------------------------------------------------------------
# Dispatch: construction-time stepper selection
# ----------------------------------------------------------------------

def test_telemetry_flag_selects_instrumented_stepper():
    instrumented = _processor(telemetry=True)
    assert instrumented._step == instrumented.scheduler.step_checked
    assert isinstance(instrumented.probes, ProbeBus)
    plain = _processor()
    assert plain._step == plain.scheduler.step
    assert plain.probes is None


def test_telemetry_and_sanitize_combine():
    both = _processor(telemetry=True, sanitize=True)
    assert both._step == both.scheduler.step_checked
    assert isinstance(both.probes, ProbeBus)


def test_env_variable_enables_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert table3_config().telemetry is True
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert table3_config().telemetry is False
    monkeypatch.delenv("REPRO_TELEMETRY")
    assert table3_config().telemetry is False


def test_telemetry_field_not_in_fingerprints():
    from repro.experiments.engine import cell_fingerprint, make_cell

    on = make_cell("go", config=replace(table3_config(), telemetry=True))
    off = make_cell("go", config=table3_config())
    assert cell_fingerprint(on) == cell_fingerprint(off)


# ----------------------------------------------------------------------
# Counter correctness on a pinned run
# ----------------------------------------------------------------------

def test_instrumented_run_bit_identical_to_plain():
    instrumented = _processor(telemetry=True)
    instrumented.run(2000, warmup_instructions=400)
    plain = _processor()
    plain.run(2000, warmup_instructions=400)
    assert instrumented.stats.committed == plain.stats.committed
    assert instrumented.cycle == plain.cycle
    assert instrumented.stats.squashed == plain.stats.squashed
    assert instrumented.stats.fetched == plain.stats.fetched


def test_probe_counters_reconcile_with_stats():
    processor = _processor(telemetry=True)
    processor.run(2000, warmup_instructions=400)
    stats = processor.stats
    snapshot = processor.probes.snapshot()
    stages = snapshot["stages"]
    assert snapshot["cycles"] == stats.cycles
    assert stages["fetch"]["instructions"] == stats.fetched
    assert stages["fetch"]["wrong_path"] == stats.fetched_wrong_path
    assert stages["decode"]["instructions"] == stats.decoded
    assert stages["rename"]["instructions"] == stats.renamed
    assert stages["issue"]["instructions"] == stats.issued
    assert stages["commit"]["instructions"] == stats.committed
    assert stages["writeback"]["squashed"] == stats.squashed
    assert stages["writeback"]["recoveries"] == stats.squashes
    assert stages["issue"]["selection_blocked"] == stats.selection_blocked
    # Active cycles can never exceed the window.
    for group in stages.values():
        assert 0 <= group["active_cycles"] <= stats.cycles


def test_throttle_residency_covers_every_cycle(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    from repro.experiments.engine import build_processor, make_cell

    cell = make_cell(
        "go", ("throttle", "C2"), instructions=1500, warmup=300
    )
    processor = build_processor(cell)
    processor.run(cell.instructions, warmup_instructions=cell.warmup)
    probes = processor.probes
    cycles = probes.snapshot()["cycles"]
    assert cycles == processor.stats.cycles
    assert sum(probes.throttle_residency) == cycles * probes.nthreads
    # C2 on 'go' throttles hard: sub-FULL residency must appear.
    assert sum(probes.throttle_residency[1:]) > 0


def test_smt_probes_split_per_thread(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    from repro.experiments.engine import build_smt_processor, make_smt_cell

    cell = make_smt_cell("mix2-branchy", instructions=800, warmup=200)
    processor = build_smt_processor(cell)
    processor.run(cell.instructions, warmup_instructions=cell.warmup)
    snapshot = processor.probes.snapshot()
    threads = snapshot["threads"]
    assert len(threads) == len(processor.threads) == 2
    assert all(thread["committed"] > 0 for thread in threads)
    assert sum(t["rob_occupancy_sum"] for t in threads) == (
        snapshot["occupancy"]["rob_sum"]
    )


# ----------------------------------------------------------------------
# The event sink and the export layer
# ----------------------------------------------------------------------

def test_publish_is_noop_when_unconfigured():
    assert tevents.publish("cache", hits=1, misses=0) is None
    assert tevents.drain() == []


def test_jsonl_round_trip(tmp_path):
    stream = io.StringIO()
    tevents.configure(writer=stream, buffering=True)
    tevents.publish("manifest", version="0")
    tevents.publish(
        "stage-counters", kind="sim", workload="go",
        counters={"cycles": 7, "stages": {"fetch": {"instructions": 3}}},
    )
    tevents.publish("cache", hits=2, misses=1)
    events = tevents.drain()
    path = tmp_path / "events.jsonl"
    path.write_text(stream.getvalue())
    loaded = read_events(str(path))
    assert loaded == events
    assert validate_events(loaded) == []
    assert [event["seq"] for event in loaded] == [0, 1, 2]
    # Replaying the loaded events (as a sweep's parent does with worker
    # batches) through a fresh sink writes the same canonical lines.
    tevents.reset()
    rewritten = io.StringIO()
    tevents.configure(writer=rewritten)
    tevents.replay(loaded)
    assert rewritten.getvalue() == stream.getvalue()


def test_read_events_names_the_corrupt_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "repro-telemetry/1"}\n{truncated')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        read_events(str(path))


def test_validate_events_flags_schema_violations():
    errors = validate_events([
        {"schema": "repro-telemetry/0", "event": "cache", "seq": 0,
         "hits": 1, "misses": 0},
        {"schema": "repro-telemetry/1", "event": "no-such-kind", "seq": 1},
        {"schema": "repro-telemetry/1", "event": "cache", "seq": 2},
        "not an object",
    ])
    assert any("repro-telemetry/0" in error for error in errors)
    assert any("no-such-kind" in error for error in errors)
    assert any("missing payload field 'hits'" in error for error in errors)
    assert any("not a JSON object" in error for error in errors)


def test_prometheus_round_trip():
    events = [
        {"schema": tevents.SCHEMA, "event": "stage-counters", "seq": 0,
         "kind": "sim", "workload": "go",
         "counters": {"cycles": 11, "stages": {"fetch": {"instructions": 5}}}},
        {"schema": tevents.SCHEMA, "event": "cache", "seq": 1,
         "hits": 3, "misses": 1},
    ]
    totals = counter_totals(events)
    assert totals["stage_counters.cycles"] == 11
    assert totals["cache.hits"] == 3
    metrics = _parse_prometheus(to_prometheus(events))
    assert metrics["repro_stage_counters_cycles_total"] == 11
    assert metrics["repro_cache_hits_total"] == 3
    assert len(metrics) == len(totals)
    ranked = top_counters(events, 2)
    assert ranked[0][1] >= ranked[1][1]


def test_worker_mode_drops_inherited_consumers():
    stream = io.StringIO()
    tevents.configure(writer=stream, listener=lambda event: None,
                      buffering=True)
    tevents.publish("manifest", version="0")  # parent-buffered pre-fork
    tevents.worker_mode()
    tevents.publish("cache", hits=0, misses=1)
    drained = tevents.drain()
    # Only the worker's own event: no writer output, no inherited buffer.
    assert [event["event"] for event in drained] == ["cache"]
    assert stream.getvalue().count("\n") == 1  # the pre-fork manifest only


# ----------------------------------------------------------------------
# Runtime metrics: scheduler events and persistent cache stats
# ----------------------------------------------------------------------

def test_scheduler_publishes_plan_batch_and_cache_events(tmp_path):
    from repro.experiments.engine import ResultCache, make_cell
    from repro.experiments.scheduler import SweepScheduler

    tevents.configure(buffering=True)
    cells = [
        make_cell("go", instructions=600, warmup=150),
        make_cell("go", ("throttle", "C2"), instructions=600, warmup=150),
    ]
    cache = ResultCache(str(tmp_path))
    SweepScheduler(cache=cache).run_cells(cells)
    kinds = [event["event"] for event in tevents.drain()]
    assert kinds.count("batch-plan") == 1
    assert kinds.count("cache") == 1
    assert "batch-complete" in kinds

    # Warm rerun: everything from cache, nothing simulated, cumulative
    # cache counters in the event.
    warm = SweepScheduler(cache=ResultCache(str(tmp_path)))
    warm.run_cells(cells)
    events = tevents.drain()
    assert warm.executed == 0
    cache_event = [e for e in events if e["event"] == "cache"][0]
    assert cache_event["hits"] == 2
    assert cache_event["misses"] == 2
    assert cache_event["hit_rate"] == 0.5


def test_instrumented_cells_emit_stage_counters(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    from repro.experiments.engine import ResultCache, make_cell
    from repro.experiments.scheduler import SweepScheduler

    tevents.configure(buffering=True)
    cells = [make_cell("go", instructions=600, warmup=150)]
    SweepScheduler(cache=ResultCache(str(tmp_path))).run_cells(cells)
    events = tevents.drain()
    counters = [e for e in events if e["event"] == "stage-counters"]
    assert len(counters) == 1
    assert counters[0]["kind"] == "sim"
    assert counters[0]["workload"] == "go"
    assert counters[0]["counters"]["stages"]["commit"]["instructions"] > 0
    assert validate_events(events) == []

    # A warm-cache cell is never simulated, so it emits no counters.
    SweepScheduler(cache=ResultCache(str(tmp_path))).run_cells(cells)
    warm_kinds = [event["event"] for event in tevents.drain()]
    assert "stage-counters" not in warm_kinds


def test_cache_stats_persist_across_instances(tmp_path):
    from repro.experiments.engine import ResultCache, make_cell, simulate

    cell = make_cell("go", instructions=600, warmup=150)
    first = ResultCache(str(tmp_path))
    assert first.get(cell) is None  # miss
    first.put(cell, simulate(cell))
    assert first.get(cell) is not None  # hit
    assert (first.hits, first.misses, first.stores) == (1, 1, 1)
    first.flush_stats()

    second = ResultCache(str(tmp_path))
    stats = second.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["stores"] == 1 and stats["hit_rate"] == 0.5
    # Session counters start at zero: the sidecar carries the history.
    assert (second.hits, second.misses, second.stores) == (0, 0, 0)

    dropped = second.prune(0.0)
    assert dropped == 1 and second.evictions == 1
    second.flush_stats()
    assert ResultCache(str(tmp_path)).stats()["evictions"] == 1


def test_manifest_names_run_and_config():
    from repro import __version__
    from repro.telemetry.runtime import build_manifest, config_digest

    manifest = build_manifest(
        "study", studies=["clock-gating"], jobs=2, instructions=900
    )
    assert manifest["version"] == __version__
    assert manifest["command"] == "study"
    assert manifest["studies"] == ["clock-gating"]
    assert manifest["jobs"] == 2
    assert manifest["instructions"] == 900
    assert manifest["config_digest"] == config_digest()
    assert len(manifest["config_digest"]) == 64


def test_stage_timers_attribute_wall_time():
    from repro.telemetry.timers import StageTimers

    processor = _processor(telemetry=True)
    timers = StageTimers(processor).attach()
    processor.run(1000, warmup_instructions=200)
    rows = timers.report()
    assert {name for name, _, _ in rows} == {
        stage.name for stage in processor.scheduler.stages
    }
    calls = {count for _, _, count in rows}
    assert len(calls) == 1  # every stage ticks every cycle
    assert timers.total_seconds > 0.0
    assert rows == sorted(rows, key=lambda row: (-row[1], row[0]))


# ----------------------------------------------------------------------
# CLI: the telemetry consumer commands
# ----------------------------------------------------------------------

def test_cli_telemetry_summary_gates_on_schema(tmp_path, capsys):
    from repro.cli import main

    good = tmp_path / "good.jsonl"
    events = [
        {"schema": tevents.SCHEMA, "event": "cache", "seq": 0,
         "hits": 4, "misses": 4},
    ]
    good.write_text(
        "\n".join(json.dumps(event) for event in events) + "\n"
    )
    assert main(["telemetry", "summary", str(good)]) == 0
    out = capsys.readouterr().out
    assert "1 events" in out
    assert "4 hits / 4 misses (50.0% hit rate)" in out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "repro-telemetry/1", "event": "cache"}\n')
    assert main(["telemetry", "summary", str(bad)]) == 1
    assert "schema violation" in capsys.readouterr().err
