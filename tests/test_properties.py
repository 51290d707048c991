"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.bpred.gshare import GSharePredictor
from repro.bpred.ras import ReturnAddressStack
from repro.confidence.base import ConfidenceLevel
from repro.confidence.bpru import BPRUEstimator
from repro.confidence.jrs import JRSEstimator
from repro.confidence.metrics import ConfidenceMatrix
from repro.core.levels import BandwidthLevel
from repro.core.policy import experiment_policy
from repro.core.throttler import SelectiveThrottler
from repro.memory.cache import Cache
from repro.memory.tlb import TLB
from repro.utils.bitops import bit_mask, is_power_of_two
from repro.utils.rng import XorShiftRNG, derive_seed, stateless_hash_step
from repro.utils.stats import arithmetic_mean, geometric_mean
from tests.conftest import dynamic_instruction, level_active


# --- RNG ----------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_rng_outputs_bounded(seed):
    rng = XorShiftRNG(seed)
    for _ in range(20):
        assert 0 <= rng.next_u64() < 2**64
        assert 0.0 <= rng.random() < 1.0


@given(st.integers(), st.integers(), st.integers())
def test_stateless_hash_is_pure(seed, a, b):
    seed &= 2**64 - 1
    first = stateless_hash_step(stateless_hash_step(seed, a), b)
    assert first == stateless_hash_step(stateless_hash_step(seed, a), b)
    assert 0 <= first < 2**64


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=100))
def test_randint_always_in_range(low, span):
    rng = XorShiftRNG(derive_seed(low, span))
    high = low + span
    for _ in range(20):
        assert low <= rng.randint(low, high) <= high


# --- bitops -----------------------------------------------------------------

@given(st.integers(min_value=1, max_value=2**30))
def test_power_of_two_detection(value):
    assert is_power_of_two(value) == (bin(value).count("1") == 1)


# --- stats --------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
def test_mean_inequality(values):
    # geometric <= arithmetic for positive values
    g = geometric_mean(values)
    a = arithmetic_mean(values)
    assert g <= a * (1 + 1e-9)


# --- caches -------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=200))
def test_cache_hits_plus_misses_equals_accesses(addresses):
    cache = Cache("t", 1024, 2, 32)
    hits = sum(cache.access(address) for address in addresses)
    misses = len(addresses) - hits
    # Every line misses on its first touch, so misses cover the distinct lines.
    assert misses >= len({address >> 5 for address in addresses})


@given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=100))
def test_cache_immediate_rereference_always_hits(addresses):
    cache = Cache("t", 4096, 4, 32)
    for address in addresses:
        cache.access(address)
        assert cache.access(address)


@given(st.lists(st.integers(min_value=0, max_value=2**24), min_size=1, max_size=150))
def test_tlb_latency_is_zero_or_penalty(addresses):
    tlb = TLB(entries=8, miss_penalty=30)
    for address in addresses:
        assert tlb.access(address) in (0, 30)


# --- predictors ---------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**16),
                          st.booleans()), min_size=1, max_size=300))
def test_gshare_history_restore_roundtrip(branches):
    predictor = GSharePredictor(1)
    for pc, taken in branches:
        prediction = predictor.predict(pc * 4)
        if prediction.taken != taken:
            predictor.restore(prediction.snapshot, taken)
        expected = ((prediction.snapshot << 1) | int(taken)) & bit_mask(predictor.index_bits)
        assert predictor.history == expected
        predictor.train(pc * 4, taken, prediction.snapshot)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                          st.booleans()), min_size=1, max_size=300))
def test_gshare_counters_stay_in_range(branches):
    predictor = GSharePredictor(1)
    for pc, taken in branches:
        prediction = predictor.predict(pc * 4)
        predictor.train(pc * 4, taken, prediction.snapshot)
    assert all(0 <= counter <= 3 for counter in predictor.table)


@given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=0, max_size=100))
def test_ras_never_exceeds_depth(pushes):
    ras = ReturnAddressStack(8)
    for value in pushes:
        ras.push(value)
    # Only the newest ``depth`` pushes survive, popped newest first.
    kept = pushes[::-1][:8]
    assert [ras.pop() for _ in kept] == kept


@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_ras_checkpoint_restores_top(operations):
    ras = ReturnAddressStack(16)
    ras.push(0xABC)
    checkpoint = ras.checkpoint()
    for is_push in operations:
        if is_push:
            ras.push(1)
        else:
            ras.pop()
    ras.restore(checkpoint)
    assert ras.pop() == 0xABC


# --- confidence ---------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1023),
                          st.booleans()), min_size=1, max_size=400))
def test_jrs_counters_bounded(history):
    estimator = JRSEstimator(1, threshold=8)
    for pc, correct in history:
        estimator.train(pc * 4, correct, 0)
    assert all(0 <= counter <= 15 for counter in estimator.table)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1023),
                          st.booleans(), st.booleans()), min_size=1, max_size=400))
def test_bpru_counters_bounded(history):
    estimator = BPRUEstimator(1)
    for pc, correct, taken in history:
        estimator.train(pc * 4, correct, 0, taken=taken)
    assert all(0 <= counter <= 7 for counter in estimator.counters)


@given(st.lists(st.tuples(st.sampled_from(list(ConfidenceLevel)), st.booleans()),
                min_size=1, max_size=200))
def test_confidence_matrix_metrics_bounded(records):
    matrix = ConfidenceMatrix()
    for level, correct in records:
        matrix.record(level, correct)
    assert 0.0 <= matrix.spec() <= 1.0
    assert 0.0 <= matrix.pvn() <= 1.0


# --- throttling ---------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
def test_bandwidth_levels_monotone_aggressiveness(cycle):
    # A more aggressive level is active on a subset of any weaker level's cycles.
    if level_active(BandwidthLevel.STALL, cycle):
        raise AssertionError("STALL must never be active")
    if level_active(BandwidthLevel.QUARTER, cycle):
        assert level_active(BandwidthLevel.HALF, cycle)
    if level_active(BandwidthLevel.HALF, cycle):
        assert level_active(BandwidthLevel.FULL, cycle)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=1000),
                          st.sampled_from([ConfidenceLevel.LC, ConfidenceLevel.VLC]),
                          st.booleans()),
                min_size=1, max_size=60))
@settings(max_examples=50)
def test_throttler_token_count_never_negative(events):
    from repro.isa.instruction import StaticInstruction
    from repro.isa.opcodes import Opcode

    throttler = SelectiveThrottler(experiment_policy("C2"))
    live = {}
    for seq, level, resolve in events:
        if seq in live:
            branch = live.pop(seq)
            if resolve:
                throttler.on_branch_resolved(branch)
            else:
                throttler.on_branch_squashed(branch)
        else:
            branch = dynamic_instruction(
                seq, StaticInstruction(seq * 4, Opcode.BR_COND, sources=(2,))
            )
            live[seq] = branch
            throttler.on_branch_fetched(branch, level)
        assert throttler.active_token_count >= 0
        assert throttler.active_token_count <= len(live)
