"""Tests for the workload suite."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec
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
    a = benchmark_spec("gzip").build_program()
    b = benchmark_spec("gzip").build_program()
    assert len(a.blocks) == len(b.blocks)
    assert [len(x.instructions) for x in a.blocks] == [
        len(x.instructions) for x in b.blocks
    ]


def test_load_suite_returns_all():
    # Every benchmark of the suite resolves to its own spec.
    assert [benchmark_spec(name).name for name in BENCHMARK_NAMES] == BENCHMARK_NAMES


def test_workload_spec_validation():
    shape = ProgramShape()
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="", shape=shape, target_miss_rate=0.1, branch_density=0.1)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", shape=shape, target_miss_rate=0.0, branch_density=0.1)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", shape=shape, target_miss_rate=0.1, branch_density=1.5)

