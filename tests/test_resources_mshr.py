"""Miss-status registers: loads that miss hold one until their fill.

Driven through the select/issue stage of a small processor (see
``tests/conftest.py``): a load issues only while an MSHR is free, a miss
occupies one until the fill returns, and a squash never recalls a fill.
"""

import pytest

from repro.errors import ConfigurationError
from repro.isa.opcodes import FU_MEM_READ, Opcode
from repro.pipeline.config import ProcessorConfig
from tests.conftest import backend_instr as _instr
from tests.conftest import backend_processor, dispatch, issue


def _load(seq):
    return _instr(seq, Opcode.LOAD, sources=(1,))


def _busy(processor) -> int:
    """Outstanding fills in the MSHR ledger."""
    return len(processor.fu_pool._mshr_release)


def test_mshr_starts_free():
    processor = backend_processor(mshr_count=4)
    assert _busy(processor) == 0
    load = _load(1)
    dispatch(processor, [load])
    assert issue(processor, 0) == [load]


def test_hold_mshr_occupies_until_release_cycle():
    processor = backend_processor(mshr_count=1)
    first, second = _load(1), _load(2)
    dispatch(processor, [first])
    # A cold D-cache: the first load misses and holds the only MSHR.
    assert issue(processor, 0) == [first]
    assert first.dcache_missed
    [release] = processor.fu_pool._mshr_release
    dispatch(processor, [second], cycle=1)
    assert issue(processor, 1) == []
    assert issue(processor, release - 1) == []
    assert issue(processor, release) == [second]


def test_load_issue_blocked_without_free_mshr():
    processor = backend_processor(mshr_count=1)
    processor.fu_pool.hold_mshr(100)
    dispatch(processor, [_load(1)])
    assert issue(processor, 1) == []


def test_store_issue_not_gated_by_mshrs():
    # Stores retire through the write buffer; only loads demand an MSHR.
    processor = backend_processor(mshr_count=1)
    processor.fu_pool.hold_mshr(100)
    store = _instr(1, Opcode.STORE, dest=None)
    dispatch(processor, [store])
    assert issue(processor, 1) == [store]


def test_alu_issue_unaffected_by_mshr_pressure():
    processor = backend_processor(mshr_count=1)
    processor.fu_pool.hold_mshr(100)
    alu = _instr(1)
    dispatch(processor, [alu])
    assert issue(processor, 1) == [alu]


def test_mshrs_release_in_completion_order():
    processor = backend_processor(mshr_count=2)
    pool = processor.fu_pool
    pool.hold_mshr(5)
    pool.hold_mshr(20)
    pool.new_cycle(6)
    assert _busy(processor) == 1
    assert pool.try_claim_code(FU_MEM_READ)
    pool.new_cycle(21)
    assert _busy(processor) == 0


def test_mem_ports_still_cap_per_cycle_issue():
    processor = backend_processor(mshr_count=64)
    dispatch(processor, [_load(seq) for seq in range(1, 6)])
    assert len(issue(processor, 0)) == processor.config.mem_ports


def test_mshr_count_must_be_positive():
    with pytest.raises(ConfigurationError):
        ProcessorConfig(mshr_count=0)


def test_squash_does_not_recall_fills():
    """A wrong-path load that missed keeps its MSHR after the squash: the
    pool has no cancellation interface at all, so a fill, once started,
    runs to its release cycle.  (This is the §3 resource-waste channel.)"""
    processor = backend_processor(mshr_count=1)
    thread = processor.threads[0]
    branch = _instr(1, Opcode.BR_COND, dest=None, sources=(1,))
    branch.bpred_snapshot = thread.bpred.predict(branch.pc).snapshot
    branch.ras_checkpoint = thread.ras.checkpoint()
    branch.mispredicted = True
    branch.resume_mode = "true"
    branch.resume_true_index = 2
    thread.unresolved_mispredicts = 1
    wrong_load = _load(2)
    wrong_load.on_wrong_path = True
    dispatch(processor, [branch, wrong_load])
    assert issue(processor, 0) == [branch, wrong_load]
    [release] = processor.fu_pool._mshr_release
    processor.scheduler.commit.recover(thread, branch, 1)
    assert wrong_load.squashed
    assert not hasattr(processor.fu_pool, "cancel_mshr")
    assert processor.fu_pool._mshr_release == [release]
    dispatch(processor, [_load(3)], cycle=1)
    assert issue(processor, release - 1) == []
