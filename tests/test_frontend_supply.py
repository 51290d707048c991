"""The instruction-supply layer: parity with the seed walkers and edge goldens.

Three kinds of guarantees:

* **stream parity** — :class:`CompiledSupply` serves record streams (true
  path and wrong-path packets) bit-identical to the seed walkers
  (:class:`TruePathOracle`, :class:`WrongPathNavigator`), on calibrated
  benchmarks and adversarial CFGs;
* **golden wrong-path edges** — RET with an empty speculative stack,
  walks into CFG sink blocks, speculative call-stack max-depth
  truncation, and empty fall-through chains are pinned as SHA-256 stream
  fingerprints captured on the seed :class:`WrongPathNavigator`, so the
  supply refactor (or any future one) cannot silently change them;
* **hash-chain identity** — the precomputed-prefix hashing the compiled
  tables rely on equals :func:`stateless_hash` step for step.
"""

import hashlib

import pytest

from repro.errors import WorkloadError
from repro.frontend.supply import (
    CompiledSupply,
    TraceSupply,
    _packet_via_navigator,
    resolve_trace_records,
)
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import Opcode
from repro.program.behavior import BiasedBehavior
from repro.program.cfg import BasicBlock, Program, TerminatorKind
from repro.program.walker import TruePathOracle, WrongPathNavigator
from repro.utils.rng import stateless_hash, stateless_hash_step
from repro.workloads.suite import benchmark_program, benchmark_spec

_MASK64 = (1 << 64) - 1


# ----------------------------------------------------------------------
# Hash-chain identity
# ----------------------------------------------------------------------

def test_stateless_hash_step_matches_full_hash():
    for seed, a, b in ((1, 2, 3), (77, 0x4bc, 129), (2003, 0, 0), (5, 10**9, 7)):
        partial = stateless_hash_step(seed & _MASK64, a)
        assert stateless_hash_step(partial, b) == stateless_hash(seed, a, b)
        assert stateless_hash_step(seed & _MASK64, a) == stateless_hash(seed, a)


# ----------------------------------------------------------------------
# Stream parity on calibrated benchmarks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bench_name", ("go", "compress", "gcc"))
def test_true_path_matches_seed_oracle(bench_name):
    spec = benchmark_spec(bench_name)
    oracle = TruePathOracle(benchmark_program(bench_name), spec.seed)
    compiled = CompiledSupply(benchmark_program(bench_name), spec.seed)
    for index in range(5000):
        a, b = oracle.get(index), compiled.get(index)
        # Distinct Program instances carry equal-but-distinct statics:
        # compare by address plus the dynamic fields.
        assert (a.static.address, a.taken, a.target_block, a.mem_address) == (
            b.static.address, b.taken, b.target_block, b.mem_address
        ), f"true-path divergence at record {index}"


@pytest.mark.parametrize("bench_name", ("go", "parser"))
def test_wrong_packets_match_seed_navigator(bench_name):
    spec = benchmark_spec(bench_name)
    program = benchmark_program(bench_name)
    navigator = WrongPathNavigator(program, spec.seed)
    compiled = CompiledSupply(benchmark_program(bench_name), spec.seed)
    for block_id in range(0, len(program.blocks), 5):
        cursor = navigator.start_cursor(block_id, salt=block_id * 31 + 7)
        assert cursor == compiled.start_cursor(block_id, salt=block_id * 31 + 7)
        reference = []
        ref_cursor = cursor
        for _ in range(80):
            static, taken, target, ref_cursor, mem = navigator.fetch_one(ref_cursor)
            reference.append((static.address, taken, target, mem))
        walked = []
        packet_cursor = cursor
        while len(walked) < 80:
            records, packet_cursor = compiled.wrong_packet(packet_cursor)
            walked.extend(
                (r[0].address, r[1], r[2], r[3]) for r in records
            )
        assert walked[:80] == reference


def test_live_supply_packets_match_compiled():
    """Packet by packet, the navigator walked one ``fetch_one`` at a time
    and the compiled supply agree on records *and* continuation cursors."""
    spec = benchmark_spec("twolf")
    navigator = WrongPathNavigator(benchmark_program("twolf"), spec.seed)
    compiled = CompiledSupply(benchmark_program("twolf"), spec.seed)
    cursor = navigator.start_cursor(3, 99)
    assert cursor == compiled.start_cursor(3, 99)
    for _ in range(40):
        live_records, live_end = _packet_via_navigator(navigator, cursor)
        comp_records, comp_end = compiled.wrong_packet(cursor)
        assert [(r[0].address, r[1], r[2], r[3]) for r in live_records] == [
            (r[0].address, r[1], r[2], r[3]) for r in comp_records
        ]
        assert live_end == comp_end
        cursor = live_end
    # True-path surfaces agree too.
    oracle = TruePathOracle(benchmark_program("twolf"), spec.seed)
    a, b = oracle.get(123), compiled.get(123)
    assert (a.static.address, a.taken, a.target_block, a.mem_address) == (
        b.static.address, b.taken, b.target_block, b.mem_address
    )


# ----------------------------------------------------------------------
# Wrong-path edge cases, pinned as goldens
# ----------------------------------------------------------------------

def _edge_program() -> Program:
    """An adversarial CFG: RET at entry, a self-jump sink, an unbounded
    speculative call chain, and an empty fall-through chain."""
    b0 = BasicBlock(0, 0, TerminatorKind.RET)
    b0.instructions = [StaticInstruction(0, Opcode.ADD, dest=1),
                       StaticInstruction(0, Opcode.RET)]
    b1 = BasicBlock(1, 0, TerminatorKind.CALL, taken_target=2, fall_target=3)
    b1.instructions = [StaticInstruction(0, Opcode.LOAD, dest=2, sources=(1,),
                                         mem_region=1, mem_stride=8,
                                         mem_footprint=4096),
                       StaticInstruction(0, Opcode.CALL)]
    b2 = BasicBlock(2, 0, TerminatorKind.JUMP, taken_target=2)
    b2.instructions = [StaticInstruction(0, Opcode.SUB, dest=3),
                       StaticInstruction(0, Opcode.BR_UNCOND)]
    b3 = BasicBlock(3, 0, TerminatorKind.COND, taken_target=4, fall_target=6,
                    behavior=BiasedBehavior(0.7, seed=11))
    b3.instructions = [StaticInstruction(0, Opcode.STORE, sources=(1, 2),
                                         mem_region=0, mem_stride=0,
                                         mem_footprint=1024),
                       StaticInstruction(0, Opcode.BR_COND, sources=(3,))]
    b4 = BasicBlock(4, 0, TerminatorKind.CALL, taken_target=4, fall_target=3)
    b4.instructions = [StaticInstruction(0, Opcode.CALL)]
    b5 = BasicBlock(5, 0, TerminatorKind.FALL, fall_target=6)
    b5.instructions = []
    b6 = BasicBlock(6, 0, TerminatorKind.FALL, fall_target=0)
    b6.instructions = [StaticInstruction(0, Opcode.XOR, dest=4)]
    program = Program([b0, b1, b2, b3, b4, b5, b6], entry_block=1, name="edges")
    program.finalize()
    return program


_EDGE_SEED = 77

# (start block, salt, records, fingerprint) — SHA-256 over the repr of the
# walked (address, opcode, taken, target, mem_address) stream, captured on
# the seed WrongPathNavigator before the supply layer existed.
_EDGE_GOLDENS = {
    "ret-empty-ras": (
        0, 5, 40,
        "b4b286c0073513031105e66eb43560868e9cd385b52d7fc4607e696f52187361",
    ),
    "sink-self-jump": (
        2, 9, 30,
        "1ff9daabb604c48c3d5b8feea4aa12b95cb009ac03c1f3ed319ab6d101b027e3",
    ),
    "call-depth-truncation": (
        4, 3, 200,
        "911e9522d8e85f4850749c4c7d88baa952115a969f83e5fd7ec5919572b3f4bd",
    ),
    "empty-fall-chain": (
        5, 1, 30,
        "4ae3cfe7f0054583e52d3e2b6bd14f40f69f5c6b66ebdcf42f1896bc5e2a206b",
    ),
}


def _stream_fingerprint(
    start_cursor, wrong_packet, start_block: int, salt: int, count: int
) -> str:
    cursor = start_cursor(start_block, salt)
    walked = []
    while len(walked) < count:
        records, cursor = wrong_packet(cursor)
        for static, taken, target, mem in records:
            walked.append(
                (static.address, static.opcode.value, bool(taken), target, mem)
            )
    return hashlib.sha256(repr(walked[:count]).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(_EDGE_GOLDENS))
def test_wrong_path_edges_match_goldens_compiled(case):
    block, salt, count, expected = _EDGE_GOLDENS[case]
    compiled = CompiledSupply(_edge_program(), _EDGE_SEED)
    assert _stream_fingerprint(
        compiled.start_cursor, compiled.wrong_packet, block, salt, count
    ) == expected


@pytest.mark.parametrize("case", sorted(_EDGE_GOLDENS))
def test_wrong_path_edges_match_goldens_live(case):
    """The same goldens on the seed navigator, one ``fetch_one`` per record."""
    block, salt, count, expected = _EDGE_GOLDENS[case]
    navigator = WrongPathNavigator(_edge_program(), _EDGE_SEED)
    assert _stream_fingerprint(
        navigator.start_cursor,
        lambda cursor: _packet_via_navigator(navigator, cursor),
        block, salt, count,
    ) == expected


def test_call_depth_truncates_at_64():
    """The speculative call stack caps at depth 64 (a wrong path cannot
    grow state without bound before its branch resolves)."""
    compiled = CompiledSupply(_edge_program(), _EDGE_SEED)
    cursor = compiled.start_cursor(4, 3)
    for _ in range(200):
        _, cursor = compiled.wrong_packet(cursor)
    assert len(cursor[2]) == 64


def test_true_path_ret_with_empty_call_stack_raises():
    from repro.errors import ProgramError

    program = _edge_program()
    # Entering at block 0 (a RET) with no prior CALL must fail on the
    # true path — and identically on the supply and the seed oracle.
    b0_first = Program(program.blocks, entry_block=0, name="ret-first")
    b0_first._finalized = True  # blocks already validated/addressed
    for walker in (CompiledSupply(b0_first, 1), TruePathOracle(b0_first, 1)):
        with pytest.raises(ProgramError, match="empty call stack"):
            walker.get(5)


# ----------------------------------------------------------------------
# Trace supplies
# ----------------------------------------------------------------------

def test_trace_supply_serves_recorded_stream_and_exhausts():
    spec = benchmark_spec("compress")
    oracle = TruePathOracle(benchmark_program("compress"), spec.seed)
    from repro.workloads.trace import TraceRecorder

    records = TraceRecorder(oracle).record(400)
    program = benchmark_program("compress")
    supply = TraceSupply(program, spec.seed, resolve_trace_records(program, records))
    fresh = TruePathOracle(benchmark_program("compress"), spec.seed)
    for index in range(400):
        a, b = supply.get(index), fresh.get(index)
        assert (a.static.address, a.taken, a.target_block, a.mem_address) == (
            b.static.address, b.taken, b.target_block, b.mem_address
        )
    with pytest.raises(WorkloadError, match="trace exhausted"):
        supply.get(400)


def test_resolve_trace_records_rejects_mismatches():
    from repro.workloads.trace import TraceRecord

    program = benchmark_program("compress")
    bogus = [TraceRecord(address=0x3, opcode="add", taken=False,
                         target_block=-1, mem_address=0)]
    with pytest.raises(WorkloadError, match="record 1"):
        resolve_trace_records(program, bogus)
