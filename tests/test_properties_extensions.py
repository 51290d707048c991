"""Property-based tests for the newer mechanisms (hypothesis)."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpred.gshare import GSharePredictor
from repro.confidence.base import ConfidenceLevel
from repro.confidence.bpru import BPRUEstimator
from repro.core.levels import BandwidthLevel
from repro.core.policy import ThrottleAction, ThrottlePolicy
from repro.core.throttler import SelectiveThrottler
from repro.isa.opcodes import FU_MEM_READ, Opcode, OpClass
from repro.isa.instruction import StaticInstruction
from repro.frontend.supply import CompiledSupply
from repro.pipeline.config import table3_config
from repro.pipeline.resources import FunctionalUnitPool
from repro.program.generator import ProgramGenerator, ProgramShape
from repro.report.ascii import bar_chart
from tests.conftest import dynamic_instruction, level_active


@given(
    holds=st.lists(st.integers(min_value=1, max_value=200), max_size=30),
    probe=st.integers(min_value=0, max_value=300),
)
def test_mshr_busy_count_never_exceeds_outstanding(holds, probe):
    pool = FunctionalUnitPool(replace(table3_config(), mshr_count=8))
    for release in holds:
        pool.hold_mshr(release)
    pool.new_cycle(probe)
    outstanding = sum(1 for release in holds if release > probe)
    assert len(pool._mshr_release) == outstanding
    # A load (which may miss) issues only while an MSHR is free.
    assert pool.try_claim_code(FU_MEM_READ) == (outstanding < 8)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=120,
    )
)
def test_throttler_aggregate_is_max_of_armed(events):
    """Under escalate-only, the effective fetch level always equals the
    maximum over the currently armed actions."""
    policy = ThrottlePolicy(
        "prop",
        lc=ThrottleAction(fetch=BandwidthLevel.QUARTER),
        vlc=ThrottleAction(fetch=BandwidthLevel.STALL),
        hc=ThrottleAction(fetch=BandwidthLevel.HALF),
    )
    throttler = SelectiveThrottler(policy)
    armed = {}
    for seq, (level_index, release) in enumerate(events):
        level = ConfidenceLevel(level_index)
        branch = dynamic_instruction(
            seq, StaticInstruction(seq * 4, Opcode.BR_COND, sources=(1,))
        )
        if release and armed:
            victim_seq, victim = armed.popitem()
            throttler.on_branch_resolved(victim)
        else:
            throttler.on_branch_fetched(branch, level)
            if not policy.action_for(level).is_null:
                armed[seq] = branch
        expected = BandwidthLevel.FULL
        for branch_seq in armed:
            action = policy.action_for(
                ConfidenceLevel(events[branch_seq][0])
            )
            if action.fetch > expected:
                expected = action.fetch
        for cycle in range(4):
            assert throttler.fetch_allowed(cycle) == level_active(expected, cycle)


@given(st.integers(min_value=0, max_value=2**31), st.integers(0, 10_000))
def test_wrong_path_addresses_word_aligned_and_in_region(seed, step):
    shape = ProgramShape(num_functions=2)
    program = ProgramGenerator(shape, 3).generate()
    supply = CompiledSupply(program, seed)
    static = None
    for block in program.blocks:
        for instr in block.instructions:
            if instr.op_class in (OpClass.MEM_READ, OpClass.MEM_WRITE):
                static = instr
                break
        if static:
            break
    if static is None:
        return
    # Enter a wrong path at the static's block with the step as the salt.
    records, _ = supply.wrong_packet(supply.start_cursor(static.block_id, step))
    [address] = [mem for s, _, _, mem in records if s is static]
    region_base = 0x1000_0000 + static.mem_region * 0x10_0000
    assert address % 4 == 0
    assert region_base <= address < region_base + 0x10_0000


@given(
    st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=8,
        ),
        st.floats(
            min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=12,
    )
)
def test_bar_chart_always_renders_every_row(rows):
    text = bar_chart(rows)
    assert len(text.splitlines()) == len(rows)


@settings(deadline=None, max_examples=25)
@given(
    hit_rate=st.floats(min_value=0.0, max_value=1.0),
    outcomes=st.lists(st.booleans(), min_size=1, max_size=60),
)
def test_bpru_value_hits_never_mislabel(hit_rate, outcomes):
    """A value hit labels VLC only when the prediction is actually wrong
    and VHC only when it is right — hits are oracle-exact by definition."""
    estimator = BPRUEstimator(8, value_hit_rate=hit_rate)
    predictor = GSharePredictor(8)
    for index, actual in enumerate(outcomes):
        pc = 0x8000 + 4 * (index % 17)
        prediction = predictor.predict(pc)
        estimator.set_actual(actual)
        level = estimator.estimate(pc, prediction, predictor)
        if level is ConfidenceLevel.VLC and hit_rate == 1.0:
            assert prediction.taken != actual
        if level is ConfidenceLevel.VHC and hit_rate == 1.0:
            assert prediction.taken == actual
        predictor.train(pc, actual, prediction.snapshot)
        estimator.train(pc, prediction.taken == actual, prediction.snapshot,
                        taken=actual)
