"""Adaptive Selective Throttling (the runtime-adaptation extension)."""

import pytest

from repro.confidence.base import ConfidenceLevel
from repro.core.adaptive import AdaptiveThrottler, default_ladder
from repro.core.policy import experiment_policy
from repro.errors import ConfigurationError
from repro.isa.instruction import DynamicInstruction, StaticInstruction
from repro.isa.opcodes import Opcode
from tests.conftest import dynamic_instruction


def _branch(seq: int, mispredicted: bool) -> DynamicInstruction:
    instr = dynamic_instruction(
        seq, StaticInstruction(seq * 4, Opcode.BR_COND, sources=(1,))
    )
    instr.mispredicted = mispredicted
    return instr


def _feed(throttler, count, mispredicted, start_seq=0):
    for offset in range(count):
        branch = _branch(start_seq + offset, mispredicted)
        throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
        throttler.on_branch_resolved(branch)


def test_default_ladder_is_the_paper_progression():
    names = [policy.name for policy in default_ladder()]
    assert names == ["A1", "A5", "C2"]


def test_promotes_when_triggers_pay_off():
    throttler = AdaptiveThrottler(window=16, start_rung=0)
    _feed(throttler, 16, mispredicted=True)
    assert throttler.rung == 1
    assert throttler.promotions == 1


def test_demotes_when_triggers_misfire():
    throttler = AdaptiveThrottler(window=16, start_rung=2)
    _feed(throttler, 16, mispredicted=False)
    assert throttler.rung == 1
    assert throttler.demotions == 1


def test_hysteresis_band_holds_the_rung():
    throttler = AdaptiveThrottler(
        window=16, start_rung=1, promote_threshold=0.6, demote_threshold=0.2
    )
    # Precision lands at 0.5: inside the band, no movement.
    for index in range(16):
        branch = _branch(index, mispredicted=index % 2 == 0)
        throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
        throttler.on_branch_resolved(branch)
    assert throttler.rung == 1
    assert throttler.promotions == throttler.demotions == 0


def test_never_promotes_past_the_top():
    throttler = AdaptiveThrottler(window=8, start_rung=2)
    _feed(throttler, 64, mispredicted=True)
    assert throttler.rung == 2


def test_never_demotes_below_the_bottom():
    throttler = AdaptiveThrottler(window=8, start_rung=0)
    _feed(throttler, 64, mispredicted=False)
    assert throttler.rung == 0


def test_squashed_triggers_do_not_vote():
    throttler = AdaptiveThrottler(window=8, start_rung=0)
    for seq in range(32):
        branch = _branch(seq, mispredicted=True)
        throttler.on_branch_fetched(branch, ConfidenceLevel.VLC)
        throttler.on_branch_squashed(branch)
    assert throttler.rung == 0
    assert throttler.precision == 0.0


def test_in_flight_tokens_survive_a_rung_switch():
    throttler = AdaptiveThrottler(window=8, start_rung=0)
    lingering = _branch(1_000, mispredicted=True)
    throttler.on_branch_fetched(lingering, ConfidenceLevel.VLC)
    # The A1 policy's VLC action is fetch/2: some cycles must be throttled.
    before = sum(not throttler.fetch_allowed(cycle) for cycle in range(8))
    assert before > 0
    _feed(throttler, 8, mispredicted=True, start_seq=2_000)
    assert throttler.rung == 1
    # The old token still throttles until ITS branch resolves.
    still = sum(not throttler.fetch_allowed(cycle) for cycle in range(8))
    assert still >= before
    throttler.on_branch_resolved(lingering)


def test_custom_ladder_accepted():
    ladder = [experiment_policy("A5"), experiment_policy("C2")]
    throttler = AdaptiveThrottler(ladder=ladder, start_rung=0)
    assert throttler._rungs[throttler.rung].policy.name == "A5"


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        AdaptiveThrottler(ladder=[])
    with pytest.raises(ConfigurationError):
        AdaptiveThrottler(window=4)
    with pytest.raises(ConfigurationError):
        AdaptiveThrottler(promote_threshold=0.2, demote_threshold=0.4)
    with pytest.raises(ConfigurationError):
        AdaptiveThrottler(start_rung=7)


def test_full_pipeline_run_with_adaptation():
    from repro.pipeline.config import table3_config
    from repro.pipeline.processor import Processor
    from repro.workloads.suite import benchmark_spec

    spec = benchmark_spec("go")
    throttler = AdaptiveThrottler(window=32)
    processor = Processor(
        table3_config(), spec.build_program(), controller=throttler, seed=spec.seed
    )
    stats = processor.run(4_000, warmup_instructions=1_000)
    assert stats.committed >= 4_000
    assert throttler.triggers > 0
