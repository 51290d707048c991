"""Pipeline tracing: capture, queries and text rendering."""

import importlib.util
import os
import sys

import pytest

from repro.errors import ConfigurationError
from repro.isa.instruction import DynamicInstruction, StaticInstruction
from repro.isa.opcodes import Opcode
from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.tracing import (
    InstructionTrace,
    PipelineTracer,
    render_pipetrace,
    stage_occupancy_histogram,
)
from repro.tracing.render import wrong_path_shadow_report
from repro.workloads.suite import benchmark_spec

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_PATH = os.path.join(_ROOT, "examples", "wrong_path_forensics.py")
EXAMPLE_GOLDEN = os.path.join(_ROOT, "tests", "goldens", "wrong_path_forensics.txt")


def _fake_instr(seq, wrong_path=False, opcode=Opcode.ADD):
    return DynamicInstruction(
        seq, StaticInstruction(seq * 4, opcode, dest=3),
        fetch_cycle=seq, on_wrong_path=wrong_path,
    )


def _marks(seq, issued=True):
    """Decode, rename, issue and complete cycles of a fake instruction."""
    return (seq + 2, seq + 4, seq + 6 if issued else -1, seq + 7)


def _trace(seq, retire, wrong_path=False, opcode=Opcode.ADD, issued=True,
           mispredicted=False):
    instr = _fake_instr(seq, wrong_path, opcode)
    instr.squashed = wrong_path
    if mispredicted:
        instr.mispredicted = True
    return InstructionTrace(instr, retire, _marks(seq, issued))


def test_tracer_records_commits_and_squashes():
    tracer = PipelineTracer()
    committed = _fake_instr(0)
    squashed = _fake_instr(1, wrong_path=True)
    squashed.squashed = True
    tracer.record(committed, 10)
    tracer.record(squashed, 11)
    assert tracer.committed_count == 1
    assert tracer.squashed_count == 1
    assert len(tracer.committed()) == 1
    assert len(tracer.squashed()) == 1


def test_tracer_capacity_keeps_most_recent():
    tracer = PipelineTracer(capacity=3)
    for seq in range(10):
        tracer.record(_fake_instr(seq), seq + 9)
    traces = tracer.traces()
    assert len(traces) == 3
    assert [t.seq for t in traces] == [7, 8, 9]
    assert tracer.committed_count == 10  # counters keep the full tally


def test_trace_lifetime_and_issue_wait():
    trace = _trace(0, 9)
    assert trace.lifetime == 9
    assert trace.issue_wait == 2


def test_invalid_capacity_rejected():
    with pytest.raises(ConfigurationError):
        PipelineTracer(capacity=0)


def test_render_pipetrace_letters_in_order():
    text = render_pipetrace([_trace(0, 9)])
    row = text.splitlines()[1]
    body = row.split("|", 1)[1]
    letters = [c for c in body if c != " "]
    assert letters == ["F", "D", "R", "I", "C", "T"]


def test_render_pipetrace_lowercases_wrong_path():
    text = render_pipetrace([_trace(0, 8, wrong_path=True)])
    assert "f" in text and "F" not in text.split("|", 2)[-1]


def test_render_pipetrace_empty():
    assert render_pipetrace([]) == "(no traces)"


def test_histogram_buckets_lifetimes():
    traces = [_trace(seq, seq + 9) for seq in range(8)]  # all lifetime 9
    text = stage_occupancy_histogram(traces, bucket=4)
    assert "8-11" in text
    assert "8 instructions" in text


def _shadow_rows(report):
    """``{branch seq: (wp fetched, wp issued)}`` of a shadow report."""
    rows = {}
    for line in report.splitlines()[1:-1]:
        seq, fetched, issued = (int(field) for field in line.split())
        rows[seq] = (fetched, issued)
    return rows


def test_shadow_report_counts_wrong_path_work():
    traces = [_trace(0, 9, opcode=Opcode.BR_COND, mispredicted=True)]
    for seq in (1, 2, 3):
        traces.append(_trace(seq, 12, wrong_path=True, issued=seq != 3))
    assert _shadow_rows(wrong_path_shadow_report(traces)) == {0: (3, 2)}


def test_shadow_report_matches_wrong_path_to_its_branch_by_seq():
    # Trace order as a run records it: each branch's wrong path is
    # squashed before the branch commits, and branch 10's shadow is cut
    # in two by a nested recovery (a wrong-path branch at 12).  A
    # position-based grouping credits branch 10 with branch 20's work.
    branch = dict(opcode=Opcode.BR_COND, mispredicted=True)
    traces = [
        _trace(14, 30, wrong_path=True, issued=False),
        _trace(15, 30, wrong_path=True, issued=False),
        _trace(11, 31, wrong_path=True),
        _trace(12, 31, wrong_path=True),
        _trace(13, 31, wrong_path=True, issued=False),
        _trace(10, 34, **branch),
        _trace(16, 35),
        _trace(21, 40, wrong_path=True),
        _trace(22, 40, wrong_path=True, issued=False),
        _trace(20, 43, **branch),
        _trace(23, 44),
    ]
    rows = _shadow_rows(wrong_path_shadow_report(traces))
    assert rows == {10: (5, 2), 20: (2, 1)}


def test_tracer_in_full_simulation():
    spec = benchmark_spec("gzip")
    processor = Processor(table3_config(), spec.build_program(), seed=spec.seed)
    tracer = PipelineTracer(capacity=5_000)
    processor.attach_tracer(tracer)
    assert processor._step == processor.scheduler.step_checked
    processor.run(2_000, warmup_instructions=0)
    assert tracer.committed_count >= 2_000
    assert tracer.squashed_count > 0
    branches = tracer.mispredicted_branches()
    assert branches, "expected mispredicted branches in the window"
    # Committed instructions must show a monotone stage progression.
    for trace in tracer.committed()[:200]:
        events = trace.stage_events()
        cycles = [cycle for cycle, _ in events]
        assert cycles == sorted(cycles)
        assert len(events) == 6, "a committed µop passes every stage"


def test_tracer_marks_retire_with_their_instructions():
    # Marks of retired instructions are popped; the ones left belong to
    # decoded instructions still in flight.
    spec = benchmark_spec("go")
    processor = Processor(table3_config(), spec.build_program(), seed=spec.seed)
    tracer = PipelineTracer(capacity=10)
    processor.attach_tracer(tracer)
    processor.run(1_500, warmup_instructions=0)
    in_flight = {instr.seq for thread in processor.threads
                 for instr in thread.rob_entries}
    for thread in processor.threads:
        in_flight.update(instr.seq for instr in thread.decode_latch)
    assert set(tracer._marks) == in_flight


def test_clear_resets_everything():
    tracer = PipelineTracer()
    tracer.record(_fake_instr(0), 9)
    tracer.clear()
    assert not tracer.traces()
    assert tracer.committed_count == 0


def test_wrong_path_forensics_example_matches_its_golden(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("wrong_path_forensics", EXAMPLE_PATH)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    monkeypatch.setattr(sys, "argv", [EXAMPLE_PATH])
    example.main()
    with open(EXAMPLE_GOLDEN, encoding="utf-8") as handle:
        expected = handle.read()
    assert capsys.readouterr().out == expected
