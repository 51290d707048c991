"""The program walk: the supply's true path ("oracle") and wrong paths.

Both streams come from :class:`~repro.frontend.supply.CompiledSupply`, the
walker the fetch stage, calibration and trace recording all use.
"""

import pytest

from repro.errors import SimulationError
from repro.frontend.supply import CompiledSupply
from repro.program.cfg import TerminatorKind


def _walk(supply, block_id, salt, packets):
    """(address, taken) of every wrong-path record over ``packets`` packets."""
    cursor = supply.start_cursor(block_id, salt)
    trail = []
    for _ in range(packets):
        records, cursor = supply.wrong_packet(cursor)
        trail.extend((static.address, taken) for static, taken, _, _ in records)
    return trail, cursor


def test_oracle_deterministic():
    # Behaviour state lives in the Program, so determinism is checked with
    # two independently generated (identical) program instances.
    from tests.conftest import small_shape
    from repro.program.generator import ProgramGenerator

    prog_a = ProgramGenerator(small_shape(), seed=42, name="testprog").generate()
    prog_b = ProgramGenerator(small_shape(), seed=42, name="testprog").generate()
    a = CompiledSupply(prog_a, seed=1)
    b = CompiledSupply(prog_b, seed=1)
    for index in range(2000):
        static_a, taken_a, _, mem_a = a.get(index)
        static_b, taken_b, _, mem_b = b.get(index)
        assert static_a.address == static_b.address
        assert taken_a == taken_b
        assert mem_a == mem_b


def test_oracle_random_access_matches_sequential(small_program):
    a = CompiledSupply(small_program, seed=1)
    sequential = [a.get(i)[0].address for i in range(500)]
    b = CompiledSupply(small_program, seed=1)
    assert b.get(499)[0].address == sequential[499]
    assert [b.get(i)[0].address for i in range(500)] == sequential


def test_oracle_follows_cfg_edges(small_program):
    supply = CompiledSupply(small_program, seed=1)
    program = small_program
    previous = None
    for index in range(3000):
        static, taken, target, _ = supply.get(index)
        if previous is not None:
            # Every record follows its predecessor along a CFG edge: the
            # next slot of the block, or the top of the block it left to.
            prev_static, prev_target = previous
            if prev_target >= 0:
                assert static.address == program.block(prev_target).address
            elif static.block_id == prev_static.block_id:
                assert static.address == prev_static.address + 4
        previous = (static, target)
        if not static.is_branch:
            continue
        block = program.block(static.block_id)
        if block.kind is TerminatorKind.COND:
            expected = block.taken_target if taken else block.fall_target
            assert target == expected
        elif block.kind is TerminatorKind.JUMP:
            assert target == block.taken_target


def test_oracle_branch_record_consistency(small_program):
    supply = CompiledSupply(small_program, seed=1)
    for index in range(2000):
        static, taken, target, _ = supply.get(index)
        if static.is_branch:
            assert target >= 0 or not taken
        else:
            assert target == -1


def test_oracle_memory_addresses_stay_in_region(small_program):
    supply = CompiledSupply(small_program, seed=1)
    for index in range(3000):
        static, _, _, mem_address = supply.get(index)
        if static.op_class.value in ("mem_read", "mem_write"):
            base = 0x1000_0000 + static.mem_region * 0x10_0000
            assert base <= mem_address < base + 0x10_0000
            assert mem_address % 4 == 0


def test_oracle_prune_and_reject_old(small_program):
    supply = CompiledSupply(small_program, seed=1)
    supply.get(1000)
    supply.prune_before(900)
    assert supply.get(900) is not None
    with pytest.raises(SimulationError):
        supply.get(100)


def test_wrongpath_deterministic(small_program):
    a = CompiledSupply(small_program, seed=1)
    b = CompiledSupply(small_program, seed=1)
    cursor_a = a.start_cursor(2, salt=5)
    cursor_b = b.start_cursor(2, salt=5)
    for _ in range(200):
        records_a, cursor_a = a.wrong_packet(cursor_a)
        records_b, cursor_b = b.wrong_packet(cursor_b)
        assert cursor_a == cursor_b
        assert records_a == records_b


def test_wrongpath_differs_by_salt(small_program):
    supply = CompiledSupply(small_program, seed=1)
    assert _walk(supply, 2, 1, 80)[0] != _walk(supply, 2, 2, 80)[0]


def test_wrongpath_never_touches_true_state(small_program):
    reference = CompiledSupply(small_program, seed=1)
    baseline = [
        reference.get(i)[1] for i in range(300) if reference.get(i)[0].is_cond_branch
    ]

    fresh = CompiledSupply(small_program, seed=1)
    cursor = fresh.start_cursor(1, salt=3)
    interleaved = []
    walked = 0
    for i in range(300):
        static, taken, _, _ = fresh.get(i)
        if static.is_cond_branch:
            interleaved.append(taken)
        # wander the wrong path between true-path reads
        records, cursor = fresh.wrong_packet(cursor)
        walked += len(records)
    assert walked > 0
    assert interleaved == baseline


def test_wrongpath_call_stack_bounded(small_program):
    supply = CompiledSupply(small_program, seed=1)
    cursor = supply.start_cursor(0, salt=1)
    for _ in range(5000):
        _, cursor = supply.wrong_packet(cursor)
        assert len(cursor[2]) <= 64
