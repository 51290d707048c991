"""ROB, LSQ, issue queue, renamer and FU pool, as the stages drive them.

Every test runs the stage code the simulator runs: instructions are
handed to the decode latch of a small :class:`Processor` and the
rename/dispatch, select/issue, writeback, commit and recovery stages are
ticked by hand, with the pipeline sanitizer's invariants checked after
every tick (see ``tests/conftest.py``).
"""

import pytest

from repro.core.throttler import SpeculationController
from repro.errors import SimulationError
from repro.isa.opcodes import Opcode
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer
from tests.conftest import backend_instr as _instr
from tests.conftest import backend_processor, dispatch, issue, tick


def _mispredicted_branch(processor, seq, sources=(1,)):
    """A conditional branch fetched down the wrong direction; recovery
    resumes the true path at its successor."""
    thread = processor.threads[0]
    branch = _instr(seq, Opcode.BR_COND, dest=None, sources=sources)
    branch.bpred_snapshot = thread.bpred.predict(branch.pc).snapshot
    branch.ras_checkpoint = thread.ras.checkpoint()
    branch.mispredicted = True
    branch.resume_mode = "true"
    branch.resume_true_index = seq + 1
    thread.unresolved_mispredicts += 1
    return branch


def _recover(processor, branch, cycle):
    processor.scheduler.commit.recover(processor.threads[0], branch, cycle)
    tick(processor, "commit", cycle)  # re-checks the invariants


def _drain(processor, start, cycles):
    """Tick writeback then commit over ``cycles`` cycles from ``start``."""
    for cycle in range(start, start + cycles):
        tick(processor, "writeback", cycle)
        tick(processor, "commit", cycle)


# --- ROB ---------------------------------------------------------------

def test_rob_fifo_order():
    processor = backend_processor()
    thread = processor.threads[0]
    slow, fast = _instr(1, Opcode.MUL), _instr(2)  # latencies 3 and 1
    assert dispatch(processor, [slow, fast]) == 2
    assert list(thread.rob_entries) == [slow, fast]
    assert issue(processor, 0) == [slow, fast]
    tick(processor, "writeback", 1)
    assert fast.completed and not slow.completed
    tick(processor, "commit", 2)
    # The younger instruction finished first but waits behind the head.
    assert processor.stats.committed == 0
    _drain(processor, 2, 3)
    assert processor.stats.committed == 2
    assert thread.last_committed_true_index == fast.true_index
    assert not thread.rob_entries


def test_rob_full_and_occupancy():
    processor = backend_processor(rob_size=2)
    thread = processor.threads[0]
    assert dispatch(processor, [_instr(1)]) == 1
    # Clock-tree power reads the ROB fill fraction.
    assert processor.rob_count / processor.scheduler.total_rob_size == 0.5
    third = _instr(3)
    assert dispatch(processor, [_instr(2), third], cycle=1) == 1
    assert processor.rob_count / processor.scheduler.total_rob_size == 1.0
    # Dispatch stalls: the third instruction waits in the decode latch.
    latch = thread.decode_latch
    assert latch.instrs[latch.head:] == [third]


def test_rob_squash_younger():
    rob = ReorderBuffer(8)
    instrs = [_instr(i) for i in range(1, 6)]
    rob.entries.extend(instrs)
    squashed = rob.squash_younger(3)
    assert [i.seq for i in squashed] == [5, 4]
    assert [i.seq for i in rob.entries] == [1, 2, 3]


# --- LSQ ---------------------------------------------------------------

def test_lsq_allocate_release_cycle():
    processor = backend_processor(lsq_size=2)
    lsq = processor.threads[0].lsq
    load, store = _instr(1, Opcode.LOAD, sources=(1,)), _instr(
        2, Opcode.STORE, dest=None
    )
    late = _instr(3, Opcode.LOAD, sources=(1,))
    # The third memory operation finds the LSQ full and stalls dispatch.
    assert dispatch(processor, [load, store, late]) == 2
    assert lsq.occupied == 2
    assert issue(processor, 0) == [load, store]
    _drain(processor, 1, 200)
    assert processor.stats.committed == 2
    assert lsq.occupied == 0
    assert dispatch(processor, [], cycle=200) == 1
    assert lsq.occupied == 1
    with pytest.raises(SimulationError):
        LoadStoreQueue(1).release()


# --- renamer -------------------------------------------------------------

def test_rename_tracks_producers():
    processor = backend_processor()
    thread = processor.threads[0]
    producer = _instr(10, dest=5)
    consumer = _instr(11, dest=6, sources=(5,))
    dispatch(processor, [producer, consumer])
    assert producer.phys_dest == 10
    assert 10 in thread.renamer.pending_tags
    assert consumer.ready_sources == 1  # waits on the producer of r5
    assert thread.iq.waiters[10] == [consumer]
    assert issue(processor, 0) == [producer]
    tick(processor, "writeback", 1)
    assert 10 not in thread.renamer.pending_tags
    assert consumer.ready_sources == 0
    late_consumer = _instr(12, dest=7, sources=(5,))
    dispatch(processor, [late_consumer], cycle=1)
    assert late_consumer.ready_sources == 0
    assert issue(processor, 1) == [consumer, late_consumer]


def test_rename_zero_register_never_renamed():
    processor = backend_processor()
    instr = _instr(10, dest=0)
    reader = _instr(11, dest=4, sources=(0,))
    dispatch(processor, [instr, reader])
    assert instr.phys_dest == -1
    assert not processor.threads[0].renamer.pending_tags - {11}
    assert reader.ready_sources == 0


def test_rename_checkpoint_restore():
    processor = backend_processor()
    thread = processor.threads[0]
    branch = _mispredicted_branch(processor, 2)
    wrong = _instr(3, dest=5)
    consumer = _instr(4, sources=(5,))
    dispatch(processor, [_instr(1, dest=5), branch, wrong, consumer])
    assert branch.rename_checkpoint is not None
    assert thread.iq.waiters[3] == [consumer]  # r5 renamed to tag 3
    _recover(processor, branch, 1)
    assert wrong.squashed and consumer.squashed
    # The branch's checkpoint maps r5 back to tag 1.
    consumer2 = _instr(5, sources=(5,))
    dispatch(processor, [consumer2], cycle=1)
    assert consumer2 in thread.iq.waiters[1]


def test_renamer_forget_squashed_tag():
    processor = backend_processor()
    thread = processor.threads[0]
    branch = _mispredicted_branch(processor, 1)
    producer = _instr(2, Opcode.MUL, dest=5)
    dependent = _instr(3, sources=(5,))
    dispatch(processor, [branch, producer, dependent])
    assert 2 in thread.renamer.pending_tags
    _recover(processor, branch, 1)
    assert 2 not in thread.renamer.pending_tags
    assert 2 not in thread.iq.waiters


# --- issue queue -------------------------------------------------------

def test_iq_ready_at_dispatch_issues():
    processor = backend_processor()
    instr = _instr(1)
    dispatch(processor, [instr])
    assert processor.threads[0].iq.ready_list == [instr]
    assert issue(processor, 0) == [instr]
    assert instr.issued
    assert processor.threads[0].iq.count == 0


def test_iq_wakeup_chain():
    processor = backend_processor()
    producer = _instr(1, dest=5)
    consumer = _instr(2, sources=(5,))
    dispatch(processor, [producer, consumer])
    assert issue(processor, 0) == [producer]
    tick(processor, "writeback", 1)
    assert issue(processor, 1) == [consumer]


def test_iq_select_oldest_first_and_width_limit():
    processor = backend_processor(issue_width=2)
    producer = _instr(1, Opcode.MUL, dest=5)
    waiter = _instr(2, sources=(5,))
    younger = [_instr(seq) for seq in (3, 4, 5)]
    dispatch(processor, [producer, waiter] + younger)
    assert issue(processor, 0) == [producer, younger[0]]
    tick(processor, "writeback", 3)
    # The wakeup appended the older waiter behind younger ready work;
    # select still picks oldest first, two per cycle.
    assert processor.threads[0].iq.ready_list == younger[1:] + [waiter]
    assert issue(processor, 3) == [waiter, younger[1]]
    assert processor.threads[0].iq.ready_list == [younger[2]]


class _BlockSeq(SpeculationController):
    """Raises the no-select bit of one sequence number."""

    throttles_selection = True

    def __init__(self, seq):
        self.seq = seq

    def blocks_selection(self, instruction):
        return instruction.seq == self.seq


def test_iq_select_respects_blocker():
    controller = _BlockSeq(1)
    processor = backend_processor(controller)
    a, b = _instr(1), _instr(2)
    dispatch(processor, [a, b])
    assert issue(processor, 0) == [b]
    assert processor.stats.selection_blocked == 1
    # The blocked instruction stays ready for later cycles.
    controller.seq = None
    assert issue(processor, 1) == [a]


def test_iq_select_respects_fu_limits():
    processor = backend_processor()
    dispatch(processor, [_instr(seq, Opcode.MUL) for seq in range(1, 5)])
    assert len(issue(processor, 0)) == 2  # Table 3: 2 integer multipliers


def test_iq_mem_ports_shared_between_loads_and_stores():
    processor = backend_processor()
    dispatch(processor, [
        _instr(1, Opcode.LOAD, sources=(1,)),
        _instr(2, Opcode.STORE, dest=None, sources=(1, 2)),
        _instr(3, Opcode.LOAD, sources=(1,)),
    ])
    assert len(issue(processor, 0)) == 2  # Table 3: 2 memory ports


def test_iq_squash_removes_from_ready():
    processor = backend_processor()
    iq = processor.threads[0].iq
    old, branch, young = _instr(1), _mispredicted_branch(processor, 2), _instr(9)
    dispatch(processor, [old, branch, young])
    assert iq.count == 3
    _recover(processor, branch, 0)
    assert young.squashed
    assert iq.ready_list == [old, branch]
    assert issue(processor, 1) == [old, branch]
    assert iq.count == 0


def test_iq_wakeup_skips_squashed():
    processor = backend_processor()
    iq = processor.threads[0].iq
    producer = _instr(1, Opcode.MUL, dest=5)
    branch = _mispredicted_branch(processor, 2)
    waiter = _instr(3, sources=(5,))
    dispatch(processor, [producer, branch, waiter])
    assert issue(processor, 0) == [producer, branch]
    _recover(processor, branch, 1)
    assert waiter.squashed
    # The squashed waiter still sits in the producer's waiter list
    # (removed lazily); the wakeup skips it.
    assert iq.waiters[1] == [waiter]
    tick(processor, "writeback", 3)
    assert producer.completed
    assert waiter.ready_sources == 1
    assert iq.ready_list == []


def test_dispatch_stalls_when_iq_full():
    processor = backend_processor(iq_size=1)
    first, second = _instr(1), _instr(2)
    assert dispatch(processor, [first, second]) == 1
    assert processor.threads[0].iq.count == 1
    assert issue(processor, 0) == [first]
    assert dispatch(processor, [], cycle=1) == 1


# --- FU pool ---------------------------------------------------------------

def test_fu_pool_branch_shares_int_alu():
    processor = backend_processor(int_alu=4)
    branches = [
        _instr(seq, Opcode.BR_UNCOND, dest=None, sources=()) for seq in range(1, 5)
    ]
    alu = _instr(5)
    dispatch(processor, branches + [alu])
    # Branches resolve on the integer ALUs: four of them use all four.
    assert issue(processor, 0) == branches
    assert issue(processor, 1) == [alu]


def test_fu_pool_refreshes_each_cycle():
    processor = backend_processor()
    dispatch(processor, [_instr(seq, Opcode.FMUL) for seq in (1, 2)])
    assert len(issue(processor, 0)) == 1  # Table 3: 1 FP multiplier
    assert len(issue(processor, 1)) == 1
