"""The instruction-supply layer: stream goldens and edge goldens.

Three kinds of guarantees:

* **stream goldens** — :class:`CompiledSupply` serves the true path of
  go, compress and gcc, the wrong-path packets and continuation cursors
  of go and parser, and a run of twolf packets exactly as the
  per-instruction seed walkers (``TruePathOracle`` and
  ``WrongPathNavigator``, retired once these were pinned) did: SHA-256
  fingerprints captured on those walkers at commit ``4ffa2bf``;
* **golden wrong-path edges** — RET with an empty speculative stack,
  walks into CFG sink blocks, speculative call-stack max-depth
  truncation, and empty fall-through chains are pinned as SHA-256 stream
  fingerprints captured on the seed navigator before the supply layer
  existed;
* **hash-chain identity** — the precomputed-prefix hashing the compiled
  tables rely on equals :func:`stateless_hash` step for step.
"""

import hashlib

import pytest

from repro.errors import WorkloadError
from repro.frontend.supply import (
    CompiledSupply,
    TraceSupply,
    resolve_trace_records,
)
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import Opcode
from repro.program.behavior import BiasedBehavior
from repro.program.cfg import BasicBlock, Program, TerminatorKind
from repro.utils.rng import stateless_hash, stateless_hash_step
from repro.workloads.suite import benchmark_program, benchmark_spec

_MASK64 = (1 << 64) - 1


def _record(record):
    """A record as plain data: (address, opcode, taken, target, mem)."""
    static, taken, target, mem_address = record
    return (static.address, static.opcode.value, bool(taken), target, mem_address)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _packets(supply, cursor, count):
    """``count`` packets from ``cursor``: (records, end cursor) each."""
    walked = []
    for _ in range(count):
        records, cursor = supply.wrong_packet(cursor)
        walked.append(([_record(r) for r in records], cursor))
    return walked


# ----------------------------------------------------------------------
# Hash-chain identity
# ----------------------------------------------------------------------

def test_stateless_hash_step_matches_full_hash():
    for seed, a, b in ((1, 2, 3), (77, 0x4bc, 129), (2003, 0, 0), (5, 10**9, 7)):
        partial = stateless_hash_step(seed & _MASK64, a)
        assert stateless_hash_step(partial, b) == stateless_hash(seed, a, b)
        assert stateless_hash_step(seed & _MASK64, a) == stateless_hash(seed, a)


# ----------------------------------------------------------------------
# Stream goldens on calibrated benchmarks (captured on the seed walkers)
# ----------------------------------------------------------------------

# SHA-256 over the first 5000 true-path records.
_TRUE_PATH_GOLDENS = {
    "go": "052c77cd88d2d31f99a22fb36173071ac80c8391a29f4fe71853ab54b58a1830",
    "compress": "6d43bb5ee80e5f0fc2990685cdcfca28c012ed2d32e1bf0b9bc4dd6b849b4cce",
    "gcc": "308cade8c35e2b5582f9eb2b19e804daf0cd15c907345dd447a724503583e044",
}

# (block count, SHA-256) over 80 packets with their end cursors from a
# wrong path entered at every 5th block (salt ``block * 31 + 7``).
_WRONG_PACKET_GOLDENS = {
    "go": (636, "7e88dbf13430c7fb5b70d73fc5c6cf0f3e398eee1c2908eef5c06101ba05a05c"),
    "parser": (415, "dc60e1bf06192edc1be1a6d21a470b7909dea64df29066ce88fa98b302ac803e"),
}

# 40 twolf packets from block 3 (salt 99) plus true-path record 123.
_TWOLF_LIVE_GOLDEN = "8f5b006790bccdbacbe72a668f12153cfa2622f47a25b2dc04107232c04ea9a6"


@pytest.mark.parametrize("bench_name", ("go", "compress", "gcc"))
def test_true_path_matches_seed_oracle(bench_name):
    supply = CompiledSupply(benchmark_program(bench_name), benchmark_spec(bench_name).seed)
    walked = [_record(supply.get(index)) for index in range(5000)]
    assert _digest(walked) == _TRUE_PATH_GOLDENS[bench_name]


@pytest.mark.parametrize("bench_name", ("go", "parser"))
def test_wrong_packets_match_seed_navigator(bench_name):
    program = benchmark_program(bench_name)
    supply = CompiledSupply(program, benchmark_spec(bench_name).seed)
    blocks, expected = _WRONG_PACKET_GOLDENS[bench_name]
    assert len(program.blocks) == blocks
    walked = [
        _packets(supply, supply.start_cursor(block_id, block_id * 31 + 7), 80)
        for block_id in range(0, blocks, 5)
    ]
    assert _digest(walked) == expected


def test_live_supply_packets_match_compiled():
    """Packet by packet, records *and* continuation cursors of a twolf
    wrong path, then a true-path record of the same supply."""
    supply = CompiledSupply(benchmark_program("twolf"), benchmark_spec("twolf").seed)
    assert supply.start_cursor(3, 99) == (3, 0, (), 99)
    walked = _packets(supply, supply.start_cursor(3, 99), 40)
    assert all(cursor[1] == 0 for _, cursor in walked)
    walked.append(_record(supply.get(123)))
    assert _digest(walked) == _TWOLF_LIVE_GOLDEN


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
    supply, start_block: int, salt: int, count: int, between=None
) -> str:
    """Fingerprint of the first ``count`` wrong-path records; ``between``
    runs after every packet."""
    cursor = supply.start_cursor(start_block, salt)
    walked = []
    while len(walked) < count:
        records, cursor = supply.wrong_packet(cursor)
        walked.extend(_record(record) for record in records)
        if between is not None:
            between()
    return _digest(walked[:count])


@pytest.mark.parametrize("case", sorted(_EDGE_GOLDENS))
def test_wrong_path_edges_match_goldens_compiled(case):
    block, salt, count, expected = _EDGE_GOLDENS[case]
    compiled = CompiledSupply(_edge_program(), _EDGE_SEED)
    assert _stream_fingerprint(compiled, block, salt, count) == expected


@pytest.mark.parametrize("case", sorted(_EDGE_GOLDENS))
def test_wrong_path_edges_match_goldens_live(case):
    """The same goldens on a supply that also generates its true path
    between packets, as it does inside a running pipeline: the wrong-path
    walk is stateless, so true-path progress cannot change it."""
    block, salt, count, expected = _EDGE_GOLDENS[case]
    supply = CompiledSupply(_edge_program(), _EDGE_SEED)
    true_index = iter(range(0, 10_000, 7))
    assert _stream_fingerprint(
        supply, block, salt, count,
        between=lambda: supply.get(next(true_index)),
    ) == expected
    assert supply._records  # the true path did advance


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
    # true path.
    b0_first = Program(program.blocks, entry_block=0, name="ret-first")
    b0_first._finalized = True  # blocks already validated/addressed
    with pytest.raises(ProgramError, match="empty call stack"):
        CompiledSupply(b0_first, 1).get(5)


# ----------------------------------------------------------------------
# Trace supplies
# ----------------------------------------------------------------------

def test_trace_supply_serves_recorded_stream_and_exhausts():
    spec = benchmark_spec("compress")
    from repro.workloads.trace import TraceRecorder

    recorded = CompiledSupply(benchmark_program("compress"), spec.seed)
    records = TraceRecorder(recorded).record(400)
    program = benchmark_program("compress")
    supply = TraceSupply(program, spec.seed, resolve_trace_records(program, records))
    fresh = CompiledSupply(benchmark_program("compress"), spec.seed)
    for index in range(400):
        assert _record(supply.get(index)) == _record(fresh.get(index))
    with pytest.raises(WorkloadError, match="trace exhausted"):
        supply.get(400)


def test_resolve_trace_records_rejects_mismatches():
    from repro.workloads.trace import TraceRecord

    program = benchmark_program("compress")
    bogus = [TraceRecord(address=0x3, opcode="add", taken=False,
                         target_block=-1, mem_address=0)]
    with pytest.raises(WorkloadError, match="record 1"):
        resolve_trace_records(program, bogus)
