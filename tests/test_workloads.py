"""Tests for the workload suite and trace utilities."""

import pytest

from repro.errors import WorkloadError
from repro.frontend.supply import CompiledSupply
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import (
    BENCHMARK_NAMES,
    benchmark_program,
    benchmark_spec,
    load_suite,
)
from repro.workloads.trace import TraceReader, TraceRecorder
from repro.program.generator import ProgramShape


def test_suite_has_the_papers_eight_benchmarks():
    assert set(BENCHMARK_NAMES) == {
        "compress", "gcc", "go", "bzip2", "crafty", "gzip", "parser", "twolf"
    }


def test_suite_reference_data_matches_table2():
    assert benchmark_spec("go").target_miss_rate == pytest.approx(0.197)
    assert benchmark_spec("parser").target_miss_rate == pytest.approx(0.068)
    assert benchmark_spec("compress").suite == "spec95"
    assert benchmark_spec("bzip2").suite == "spec2000"


def test_unknown_benchmark_raises():
    with pytest.raises(WorkloadError):
        benchmark_spec("doom")


def test_programs_are_deterministic():
    a = benchmark_program("gzip")
    b = benchmark_program("gzip")
    assert len(a.blocks) == len(b.blocks)
    assert a.static_instruction_count() == b.static_instruction_count()


def test_load_suite_returns_all():
    suite = load_suite()
    assert list(suite) == BENCHMARK_NAMES


def test_workload_spec_validation():
    shape = ProgramShape()
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="", shape=shape, target_miss_rate=0.1, branch_density=0.1)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", shape=shape, target_miss_rate=0.0, branch_density=0.1)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", shape=shape, target_miss_rate=0.1, branch_density=1.5)


def test_trace_record_and_replay_roundtrip(tmp_path, fresh_program):
    recorder = TraceRecorder(CompiledSupply(fresh_program, seed=1))
    records = recorder.record(500)
    assert len(records) == 500
    branches = [r for r in records if r.is_cond_branch]
    assert branches

    fresh_program.reset_behaviors()
    path = tmp_path / "trace.txt"
    TraceRecorder(CompiledSupply(fresh_program, seed=1)).record_to_file(str(path), 500)

    replayed = list(TraceReader(str(path)))
    assert len(replayed) == 500
    for memory_record, file_record in zip(records, replayed):
        assert memory_record.address == file_record.address
        assert memory_record.opcode == file_record.opcode
        assert memory_record.taken == file_record.taken
        assert memory_record.mem_address == file_record.mem_address


def test_trace_reader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("only three fields here\n")
    with pytest.raises(WorkloadError):
        list(TraceReader(str(path)))
