"""Trace record→write→parse→replay round-trips (workloads/trace.py)."""

import pytest

from repro.errors import WorkloadError
from repro.frontend.supply import CompiledSupply
from repro.workloads.suite import benchmark_program
from repro.workloads.trace import TraceReader, TraceRecord, TraceRecorder


@pytest.fixture(scope="module")
def recorded():
    """300 true-path records of a calibrated benchmark."""
    supply = CompiledSupply(benchmark_program("compress"), seed=123)
    return TraceRecorder(supply).record(300)


def test_record_covers_branches_and_memory(recorded):
    opcodes = {record.opcode for record in recorded}
    assert "br_cond" in opcodes
    assert any(record.is_cond_branch for record in recorded)
    assert any(not record.is_cond_branch for record in recorded)
    # Memory records carry real addresses; non-memory records carry zero.
    mem = [r for r in recorded if r.opcode in ("load", "store")]
    assert mem, "calibrated benchmarks always touch memory"
    assert all(record.mem_address > 0 for record in mem)
    non_mem = [r for r in recorded if r.opcode not in ("load", "store")]
    assert all(record.mem_address == 0 for record in non_mem)


def test_in_memory_record_matches_file_record(tmp_path, recorded):
    path = tmp_path / "trace.txt"
    supply = CompiledSupply(benchmark_program("compress"), seed=123)
    TraceRecorder(supply).record_to_file(str(path), 300)
    parsed = list(TraceReader(str(path)))
    assert parsed == recorded


def test_write_parse_round_trip_preserves_every_field(tmp_path, recorded):
    path = tmp_path / "trace.txt"
    with open(path, "w", encoding="ascii") as handle:
        for r in recorded:
            handle.write(
                f"{r.address:x} {r.opcode} {int(r.taken)} "
                f"{r.target_block} {r.mem_address:x}\n"
            )
    parsed = list(TraceReader(str(path)))
    assert len(parsed) == len(recorded)
    for original, reread in zip(recorded, parsed):
        assert reread == original
        assert reread.is_cond_branch == original.is_cond_branch


def test_replay_matches_a_fresh_oracle_walk(recorded):
    """A recorded trace replays the exact dynamic stream the supply serves."""
    supply = CompiledSupply(benchmark_program("compress"), seed=123)
    for index, record in enumerate(recorded):
        static, taken, target_block, mem_address = supply.get(index)
        assert record.address == static.address
        assert record.opcode == static.opcode.value
        assert record.taken == taken
        assert record.target_block == target_block
        assert record.mem_address == mem_address


def test_branch_edge_cases_round_trip(tmp_path):
    """Taken/not-taken conditionals, negative targets and calls survive."""
    records = [
        TraceRecord(address=0x400000, opcode="br_cond", taken=True,
                    target_block=7, mem_address=0),
        TraceRecord(address=0x400004, opcode="br_cond", taken=False,
                    target_block=-1, mem_address=0),
        TraceRecord(address=0x400008, opcode="call", taken=True,
                    target_block=3, mem_address=0),
        TraceRecord(address=0x40000C, opcode="load", taken=False,
                    target_block=-1, mem_address=0x1000_0040),
        TraceRecord(address=0x400010, opcode="int_alu", taken=False,
                    target_block=-1, mem_address=0),
    ]
    path = tmp_path / "edge.txt"
    with open(path, "w", encoding="ascii") as handle:
        for r in records:
            handle.write(
                f"{r.address:x} {r.opcode} {int(r.taken)} "
                f"{r.target_block} {r.mem_address:x}\n"
            )
    parsed = list(TraceReader(str(path)))
    assert parsed == records
    assert [r.is_cond_branch for r in parsed] == [True, True, False, False, False]


def test_malformed_record_raises_with_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("400000 br_cond 1 7 0\n400004 load 0\n", encoding="ascii")
    with pytest.raises(WorkloadError, match="bad.txt:2"):
        list(TraceReader(str(path)))


def test_record_to_file_prunes_as_it_goes(tmp_path):
    """Long recordings stay constant-memory (the supply prunes behind)."""
    supply = CompiledSupply(benchmark_program("gzip"), seed=5)
    path = tmp_path / "long.txt"
    TraceRecorder(supply).record_to_file(str(path), 10_000)
    assert sum(1 for _ in TraceReader(str(path))) == 10_000
    # Records behind the prune point are gone from the live supply.
    assert supply._base > 0


# ----------------------------------------------------------------------
# Versioned (v2) traces: header, gzip, full-pipeline replay
# ----------------------------------------------------------------------

def test_v2_header_round_trip(tmp_path):
    from repro.workloads.trace import record_benchmark_trace

    path = tmp_path / "c.trace"
    header = record_benchmark_trace("compress", str(path), 200)
    reader = TraceReader(str(path))
    parsed = reader.read_header()
    assert parsed == header
    assert parsed.version == 2
    assert parsed.benchmark == "compress"
    assert parsed.records == 200
    assert len(list(reader)) == 200


def test_gzip_traces_round_trip(tmp_path):
    from repro.workloads.trace import record_benchmark_trace

    plain = tmp_path / "c.trace"
    packed = tmp_path / "c.trace.gz"
    record_benchmark_trace("compress", str(plain), 150)
    record_benchmark_trace("compress", str(packed), 150)
    assert list(TraceReader(str(plain))) == list(TraceReader(str(packed)))
    # The gzip file really is compressed.
    assert packed.read_bytes()[:2] == b"\x1f\x8b"


def test_malformed_field_raises_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("400000 br_cond 1 7 0\n40zz04 load 0 -1 0\n", encoding="ascii")
    with pytest.raises(WorkloadError, match="bad.txt:2"):
        list(TraceReader(str(path)))


def test_headerless_trace_cannot_replay(tmp_path):
    from repro.workloads.trace import load_trace_supply

    path = tmp_path / "v1.txt"
    path.write_text("400000 add 0 -1 0\n", encoding="ascii")
    with pytest.raises(WorkloadError, match="headerless"):
        load_trace_supply(str(path))


def test_trace_replay_is_bit_identical_to_live_walk(tmp_path):
    """Acceptance: a recorded trace replays through the full pipeline to
    the same result fingerprint as the live walk."""
    import json

    from repro.experiments.engine import (
        make_trace_cell,
        result_to_dict,
        simulate,
        SimCell,
    )
    from repro.pipeline.config import table3_config
    from repro.workloads.trace import record_benchmark_trace

    path = tmp_path / "go.trace.gz"
    record_benchmark_trace("go", str(path), 2500 + 600 + 2000)
    replay_cell = make_trace_cell(
        str(path), instructions=2500, warmup=600, config=table3_config(),
        label="baseline",
    )
    live_cell = SimCell(
        benchmark="go", controller_spec=("baseline",), config=table3_config(),
        instructions=2500, warmup=600,
    )
    replayed = result_to_dict(simulate(replay_cell))
    lived = result_to_dict(simulate(live_cell))
    assert json.dumps(replayed, sort_keys=True) == json.dumps(lived, sort_keys=True)


def test_trace_cell_fingerprint_tracks_content(tmp_path):
    from repro.experiments.engine import cell_fingerprint, make_trace_cell
    from repro.workloads.trace import record_benchmark_trace

    a = tmp_path / "a.trace"
    record_benchmark_trace("compress", str(a), 300)
    cell = make_trace_cell(str(a), instructions=100, warmup=0)
    plain = cell_fingerprint(cell)
    # Same cell without the trace is a different address.
    from dataclasses import replace
    assert cell_fingerprint(replace(cell, trace=None)) != plain
    # Re-recording with different content misses cleanly.
    record_benchmark_trace("compress", str(a), 301)
    assert cell_fingerprint(make_trace_cell(str(a), instructions=100, warmup=0)) != plain
