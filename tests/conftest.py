"""Shared fixtures: small programs and processors that run fast."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.levels import BandwidthLevel
from repro.isa.instruction import DynamicInstruction, StaticInstruction
from repro.isa.opcodes import Opcode
from repro.pipeline.config import ProcessorConfig, table3_config
from repro.pipeline.processor import Processor
from repro.pipeline.sanitizer import check_invariants
from repro.power.units import NUM_UNITS
from repro.program.generator import ProgramGenerator, ProgramShape


def level_active(level: BandwidthLevel, cycle: int) -> bool:
    """Reference bandwidth schedule (paper §4.1): may a stage throttled to
    ``level`` work on ``cycle``?  Half bandwidth is one active cycle in
    two, quarter one in four, stall none; the pipeline's 4-cycle wheel
    masks (``ACTIVE_WHEEL_MASKS``) must agree with it."""
    if level is BandwidthLevel.STALL:
        return False
    period = {
        BandwidthLevel.FULL: 1, BandwidthLevel.HALF: 2, BandwidthLevel.QUARTER: 4,
    }[level]
    return cycle % period == 0


def dynamic_instruction(
    seq: int,
    static: StaticInstruction,
    thread_id: int = 0,
    fetch_cycle: int = -1,
    on_wrong_path: bool = False,
) -> DynamicInstruction:
    """A standalone in-flight instruction, slot for slot as fetch builds one.

    ``DynamicInstruction`` has no constructor: the fetch stage creates
    each instance with ``__new__`` and stores only the slots its kind
    needs.  This helper stores the same set: the control-flow slots (and
    ``pc``) only on branches; ``true_index``, ``mem_address`` and
    ``ready_sources`` are left for the test to set where it needs them.
    """
    instr = DynamicInstruction.__new__(DynamicInstruction)
    instr.seq = seq
    instr.static = static
    instr.thread_id = thread_id
    instr.phys_dest = -1
    instr.issued = False
    instr.completed = False
    instr.woke = False
    instr.fetch_cycle = fetch_cycle
    instr.on_wrong_path = on_wrong_path
    instr.squashed = False
    if static.is_branch:
        instr.pc = static.address
        instr.predicted_taken = False
        instr.actual_taken = False
        instr.actual_target = 0
        instr.mispredicted = False
        instr.confidence = None
        instr.lowconf = False
        instr.bpred_snapshot = None
        instr.ras_checkpoint = None
        instr.rename_checkpoint = None
        instr.resume_mode = None
        instr.resume_true_index = -1
        instr.resume_wp_cursor = None
        instr.throttle_token = None
    return instr


def small_shape() -> ProgramShape:
    """A compact program shape for fast unit tests."""
    return ProgramShape(
        num_functions=4,
        blocks_per_function=(6, 10),
        block_size=(3, 6),
    )


@pytest.fixture(scope="session")
def small_program():
    """One finalized small program shared by the whole session."""
    return ProgramGenerator(small_shape(), seed=42, name="testprog").generate()


@pytest.fixture()
def fresh_program():
    """A per-test program (for tests that mutate behaviour state)."""
    return ProgramGenerator(small_shape(), seed=42, name="testprog").generate()


@pytest.fixture()
def config() -> ProcessorConfig:
    """The Table-3 baseline configuration."""
    return table3_config()


def run_small(program, controller=None, instructions=3000, config=None, seed=42):
    """Build a processor on ``program`` and run a short simulation."""
    processor = Processor(
        config or table3_config(), program, controller=controller, seed=seed
    )
    processor.run(instructions)
    return processor


# ----------------------------------------------------------------------
# Hand-driven back-end stages
# ----------------------------------------------------------------------

def backend_processor(controller=None, **overrides) -> Processor:
    """A one-thread processor (Table 3 plus ``overrides``) whose back-end
    stages a test ticks by hand; nothing is fetched, since fetch never
    ticks."""
    program = ProgramGenerator(small_shape(), seed=42, name="testprog").generate()
    return Processor(
        replace(table3_config(), **overrides), program,
        controller=controller, seed=1,
    )


def backend_instr(seq, opcode=Opcode.ADD, dest=3, sources=(1, 2)):
    """A true-path instruction ready to be handed to rename."""
    static = StaticInstruction(seq * 4, opcode, dest=dest, sources=sources)
    instr = dynamic_instruction(seq, static, fetch_cycle=0)
    instr.true_index = seq
    if static.is_mem:
        instr.mem_address = 0x1000_0000 + 64 * seq
    return instr


def tick(processor, stage: str, cycle: int) -> None:
    """Tick one stage (``commit``, ``writeback``, ``issue`` or
    ``decode_rename``) at ``cycle``, then check every pipeline invariant."""
    getattr(processor.scheduler, stage).tick(cycle, [0] * NUM_UNITS)
    check_invariants(processor, stage, cycle)


def dispatch(processor, instrs, cycle: int = 0) -> int:
    """Hand ``instrs`` to the decode latch and tick rename/dispatch once;
    returns how many were renamed."""
    latch = processor.threads[0].decode_latch
    for instr in instrs:
        latch.instrs.append(instr)
        latch.stamps.append(cycle)
    before = processor.stats.renamed
    tick(processor, "decode_rename", cycle)
    return processor.stats.renamed - before


def issue(processor, cycle: int = 0):
    """Tick select/issue once; returns the instructions it issued."""
    ready = list(processor.threads[0].iq.ready_list)
    tick(processor, "issue", cycle)
    return sorted((i for i in ready if i.issued), key=lambda i: i.seq)
