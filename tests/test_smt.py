"""SMT core: parity with the baseline processor, policies, mixes, metrics,
engine integration and CLI determinism."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, ExperimentError, WorkloadError
from repro.experiments.engine import (
    ResultCache,
    make_cell,
    make_smt_cell,
    simulate_smt,
    smt_baseline_cells,
    smt_cell_fingerprint,
)
from repro.experiments.scheduler import SweepScheduler
from repro.pipeline.config import table3_config
from repro.pipeline.processor import Processor
from repro.report.smt import format_smt_report
from repro.smt.core import SmtProcessor
from repro.smt.metrics import (
    collect_smt_result,
    harmonic_fairness,
    smt_result_from_dict,
    smt_result_to_dict,
    weighted_speedup,
)
from repro.smt.mixes import MIX_NAMES, load_mixes, mix_spec
from repro.smt.policies import (
    ConfidenceGatingPolicy,
    ICountPolicy,
    RoundRobinPolicy,
    make_fetch_policy,
)
from repro.workloads.suite import benchmark_spec


def _program(benchmark: str, seed: int):
    return replace(benchmark_spec(benchmark), seed=seed).build_program()


def _mix_programs(mix):
    """One freshly generated program per thread of ``mix``."""
    return [spec.build_program() for spec in mix.thread_specs()]


# ----------------------------------------------------------------------
# Parity: a 1-thread SMT core IS the baseline machine
# ----------------------------------------------------------------------

def test_single_thread_smt_matches_baseline_processor_exactly():
    # A 1-thread core's fetch bypasses the policy, so the cycle skip must
    # not apply one either (confidence gating's duty cycle once delayed
    # the skip's fetch reopening on these configurations).
    for benchmark, seed, memory_latency in (
        ("go", 4242, 18), ("go", 1, 18), ("gcc", 7, 18), ("compress", 4242, 200),
    ):
        # Each processor resets the program's behaviour state when it
        # takes ownership, so the runs share one instance.
        program = _program(benchmark, seed)
        for cycle_skip in (True, False):
            config = replace(
                table3_config(), memory_latency=memory_latency, cycle_skip=cycle_skip
            )
            baseline = Processor(config, program, seed=seed)
            baseline.run(3000, warmup_instructions=500)
            for policy in ("round-robin", "icount", "confidence-gating"):
                label = (benchmark, seed, memory_latency, cycle_skip, policy)
                smt = SmtProcessor(
                    config, [program], [seed],
                    fetch_policy=make_fetch_policy(policy),
                )
                smt.run(3000, warmup_instructions=500)
                assert smt.stats.committed == baseline.stats.committed, label
                assert smt.stats.cycles == baseline.stats.cycles, label
                assert smt.stats.fetched == baseline.stats.fetched, label
                assert smt.stats.squashed == baseline.stats.squashed, label
                assert smt.power.total_energy() == pytest.approx(
                    baseline.power.total_energy()
                ), label


def test_single_thread_shared_mode_also_matches():
    seed = 99
    baseline = Processor(table3_config(), _program("gzip", seed), seed=seed)
    baseline.run(2000)
    smt = SmtProcessor(
        table3_config(), [_program("gzip", seed)], [seed], sharing="shared"
    )
    smt.run(2000)
    assert smt.stats.committed == baseline.stats.committed
    assert smt.stats.cycles == baseline.stats.cycles


# ----------------------------------------------------------------------
# Multi-thread behaviour
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def branchy_run():
    mix = mix_spec("mix2-branchy")
    smt = SmtProcessor(
        table3_config(), _mix_programs(mix), mix.thread_seeds(),
        fetch_policy=ConfidenceGatingPolicy(),
    )
    smt.run(1500, warmup_instructions=300)
    return smt


def test_two_thread_mix_runs_both_threads_to_target(branchy_run):
    for thread in branchy_run.threads:
        assert thread.committed >= 1500
    assert branchy_run.stats.committed == sum(
        thread.committed for thread in branchy_run.threads
    )


def test_threads_share_cycles_but_commit_separately(branchy_run):
    cycles = branchy_run.stats.cycles
    ipcs = [thread.committed / cycles for thread in branchy_run.threads]
    assert all(ipc > 0.0 for ipc in ipcs)
    # Total IPC decomposes into the per-thread IPCs.
    assert sum(ipcs) == pytest.approx(branchy_run.stats.ipc)


def test_confidence_gating_gates_the_branchy_thread(branchy_run):
    go_thread, twolf_thread = branchy_run.threads
    # go mispredicts far more than twolf: it must lose fetch slots.
    assert go_thread.policy_gated_cycles > twolf_thread.policy_gated_cycles


def test_confidence_gating_reduces_wasted_energy_vs_round_robin():
    mix = mix_spec("mix2-branchy")
    fractions = {}
    for policy in ("round-robin", "confidence-gating"):
        smt = SmtProcessor(
            table3_config(), _mix_programs(mix), mix.thread_seeds(),
            fetch_policy=make_fetch_policy(policy),
        )
        smt.run(1200, warmup_instructions=300)
        total = smt.power.total_energy()
        fractions[policy] = smt.power.total_wasted_energy() / total
    assert fractions["confidence-gating"] < fractions["round-robin"]


def test_same_seed_same_mix_is_deterministic():
    mix = mix_spec("mix2-skewed")

    def run_once():
        smt = SmtProcessor(
            table3_config(), _mix_programs(mix), mix.thread_seeds(),
            fetch_policy=ConfidenceGatingPolicy(),
        )
        smt.run(800, warmup_instructions=200)
        return collect_smt_result(smt, mix.name, "confidence-gating", 800)

    assert smt_result_to_dict(run_once()) == smt_result_to_dict(run_once())


def test_four_thread_mix_and_per_thread_power_attribution():
    mix = mix_spec("mix4-diverse")
    smt = SmtProcessor(
        table3_config(), _mix_programs(mix), mix.thread_seeds(),
        fetch_policy=ICountPolicy(),
    )
    smt.run(400, warmup_instructions=100)
    attribution = smt.power.thread_attribution()
    assert sorted(attribution) == [0, 1, 2, 3]
    for thread in smt.threads:
        ledger = attribution[thread.thread_id]
        assert ledger["committed"] == thread.committed
        assert ledger["useful_joules"] > 0.0


def test_shared_mode_occupancy_uses_the_shared_cap():
    """Clock-tree occupancy divides by the shared ROB capacity, not the
    sum of the full-size per-thread ROBs (which would halve reported
    occupancy per extra thread)."""
    config = table3_config()
    mix = mix_spec("mix2-steady")
    shared = SmtProcessor(
        config, _mix_programs(mix), mix.thread_seeds(), sharing="shared"
    )
    assert shared.total_rob_size == config.rob_size
    partitioned = SmtProcessor(
        config, _mix_programs(mix), mix.thread_seeds(), sharing="partitioned"
    )
    assert partitioned.total_rob_size == config.rob_size


def test_smt_constructor_validation():
    config = table3_config()
    program = _program("go", 1)
    with pytest.raises(ConfigurationError):
        SmtProcessor(config, [], [])
    with pytest.raises(ConfigurationError):
        SmtProcessor(config, [program], [1, 2])
    with pytest.raises(ConfigurationError):
        SmtProcessor(config, [program, program], [1, 2])  # shared instance
    with pytest.raises(ConfigurationError):
        SmtProcessor(config, [program], [1], sharing="bogus")


# ----------------------------------------------------------------------
# Policies and mixes
# ----------------------------------------------------------------------

def test_policy_registry_and_validation():
    assert isinstance(make_fetch_policy("round-robin"), RoundRobinPolicy)
    assert isinstance(make_fetch_policy("icount"), ICountPolicy)
    assert isinstance(make_fetch_policy("confidence-gating"), ConfidenceGatingPolicy)
    with pytest.raises(ConfigurationError):
        make_fetch_policy("nonexistent")


def test_round_robin_actually_alternates():
    """The rotation modulus is the thread count, not an arbitrary span."""
    mix = mix_spec("mix2-steady")
    smt = SmtProcessor(
        table3_config(), _mix_programs(mix), mix.thread_seeds(),
        fetch_policy=RoundRobinPolicy(),
    )
    policy = smt.fetch_policy
    wins = {0: 0, 1: 0}
    for cycle in range(64):
        chosen = policy.pick(smt, cycle)
        wins[chosen.thread_id] += 1
    # On an idle machine every thread is eligible every cycle: exact halves.
    assert wins == {0: 32, 1: 32}


def test_throttled_thread_never_wins_the_fetch_port():
    """A thread whose controller gates fetch must not consume the slot."""
    from repro.core.gating import PipelineGatingController
    from repro.core.throttler import NullController

    mix = mix_spec("mix2-steady")
    gating = PipelineGatingController(1)
    gating._outstanding = 5  # force thread 0's gate closed
    smt = SmtProcessor(
        table3_config(), _mix_programs(mix), mix.thread_seeds(),
        controllers=[gating, NullController()],
        fetch_policy=RoundRobinPolicy(),
    )
    policy = smt.fetch_policy
    for cycle in range(16):
        assert policy.pick(smt, cycle).thread_id == 1


def test_gating_levels_follow_thresholds():
    policy = ConfidenceGatingPolicy()
    from repro.core.levels import BandwidthLevel

    assert policy.level_for(0) is BandwidthLevel.FULL
    assert policy.level_for(1) is BandwidthLevel.HALF
    assert policy.level_for(2) is BandwidthLevel.QUARTER
    assert policy.level_for(3) is BandwidthLevel.QUARTER
    assert policy.level_for(4) is BandwidthLevel.STALL


def test_mix_registry():
    assert "mix2-branchy" in MIX_NAMES
    assert all(name in load_mixes() for name in MIX_NAMES)
    with pytest.raises(WorkloadError):
        mix_spec("mix9-unknown")
    spec = mix_spec("mix4-branchy")
    assert len(spec.benchmarks) == 4


def test_homogeneous_mix_gets_distinct_program_instances():
    mix = mix_spec("mix2-twins")
    seeds = mix.thread_seeds()
    assert seeds[0] != seeds[1]
    programs = _mix_programs(mix)
    assert programs[0] is not programs[1]


def test_mix_seed_override_changes_thread_seeds():
    mix = mix_spec("mix2-branchy")
    assert mix.thread_seeds(1) != mix.thread_seeds(2)
    assert mix.thread_seeds(7) == mix.thread_seeds(7)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_weighted_speedup_and_fairness():
    assert weighted_speedup([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.5)
    assert harmonic_fairness([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.5)
    # Fairness punishes imbalance; weighted speedup does not.
    balanced = harmonic_fairness([1.0, 1.0], [2.0, 2.0])
    skewed = harmonic_fairness([1.8, 0.2], [2.0, 2.0])
    assert weighted_speedup([1.8, 0.2], [2.0, 2.0]) == pytest.approx(0.5)
    assert skewed < balanced
    with pytest.raises(ExperimentError):
        weighted_speedup([1.0], [1.0, 2.0])
    with pytest.raises(ExperimentError):
        weighted_speedup([1.0], [0.0])


def test_smt_result_round_trips_through_dict():
    cell = make_smt_cell("mix2-steady", instructions=500, warmup=100)
    result = simulate_smt(cell)
    assert smt_result_from_dict(smt_result_to_dict(result)) == result
    assert result.nthreads == 2
    assert result.energy_per_instruction_nj > 0.0


def test_simulate_smt_builds_each_program_once(monkeypatch):
    from collections import OrderedDict

    from repro.experiments import engine
    from repro.workloads.spec import WorkloadSpec

    builds = []
    build_program = WorkloadSpec.build_program

    def counting_build(spec):
        builds.append((spec.name, spec.seed))
        return build_program(spec)

    monkeypatch.setattr(WorkloadSpec, "build_program", counting_build)
    monkeypatch.setattr(engine, "_PROGRAM_MEMO", OrderedDict())
    cell = make_smt_cell("mix2-branchy", instructions=400, warmup=100)
    first = simulate_smt(cell)
    second = simulate_smt(cell)
    assert len(builds) == len(set(builds)) == 2, builds
    assert smt_result_to_dict(second) == smt_result_to_dict(first)


# ----------------------------------------------------------------------
# Engine integration: fingerprints, cache, mixed batches
# ----------------------------------------------------------------------

def test_smt_fingerprint_separates_cells():
    base = make_smt_cell("mix2-branchy", instructions=500, warmup=100)
    prints = {
        smt_cell_fingerprint(base),
        smt_cell_fingerprint(replace(base, policy="icount")),
        smt_cell_fingerprint(replace(base, sharing="shared")),
        smt_cell_fingerprint(replace(base, seed=5)),
        smt_cell_fingerprint(replace(base, mix="mix2-steady")),
        smt_cell_fingerprint(replace(base, instructions=501)),
    }
    assert len(prints) == 6


def test_engine_runs_mixed_batches_through_one_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    scheduler = SweepScheduler(cache=cache)
    smt_cell = make_smt_cell("mix2-steady", instructions=400, warmup=100)
    cells = [smt_cell] + smt_baseline_cells(smt_cell)
    first = scheduler.run_cells(cells)
    assert scheduler.executed == 3
    assert cache.stores == 3

    warm = SweepScheduler(cache=ResultCache(str(tmp_path)))
    second = warm.run_cells(cells)
    assert warm.executed == 0  # everything served from disk
    assert smt_result_to_dict(second[0]) == smt_result_to_dict(first[0])
    assert second[1:] == first[1:]


def test_smt_and_sim_cache_entries_never_collide(tmp_path):
    cache = ResultCache(str(tmp_path))
    smt_cell = make_smt_cell("mix2-steady", instructions=400, warmup=100)
    sim_cell = make_cell("parser", instructions=400, warmup=100)
    result = simulate_smt(smt_cell)
    cache.put(smt_cell, result)
    assert cache.get(sim_cell) is None
    assert smt_result_to_dict(cache.get(smt_cell)) == smt_result_to_dict(result)


def test_baseline_cells_reuse_derived_thread_seeds():
    cell = make_smt_cell("mix2-branchy", instructions=300, warmup=0, seed=11)
    references = smt_baseline_cells(cell)
    assert [ref.benchmark for ref in references] == ["go", "twolf"]
    assert references[0].effective_seed != references[1].effective_seed
    assert references[0].effective_seed == mix_spec("mix2-branchy").thread_seeds(11)[0]


# ----------------------------------------------------------------------
# Report and CLI
# ----------------------------------------------------------------------

def test_smt_report_is_deterministic_and_complete(tmp_path):
    cell = make_smt_cell("mix2-steady", instructions=400, warmup=100)
    results = SweepScheduler().run_cells([cell] + smt_baseline_cells(cell))
    report = format_smt_report(results[0], results[1:])
    assert "weighted speedup" in report
    assert "harmonic fairness" in report
    assert "parser" in report and "bzip2" in report
    again = SweepScheduler().run_cells([cell] + smt_baseline_cells(cell))
    assert format_smt_report(again[0], again[1:]) == report
    with pytest.raises(ExperimentError):
        format_smt_report(results[0], results[1:2])


def test_cli_smt_command_byte_identical_with_cache(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "smt", "--mix", "mix2-steady",
        "--instructions", "400", "--warmup", "100",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "SMT mix 'mix2-steady'" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    # 1 SMT entry + 2 single-thread references (entries only — the
    # underscore-prefixed stats sidecar is metadata, not an entry).
    assert len(list((tmp_path / "cache").glob("[!_]*.json"))) == 3


def test_cli_smt_without_mix_lists_mixes(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["smt"])
    out = capsys.readouterr().out
    assert "mix2-branchy" in out
