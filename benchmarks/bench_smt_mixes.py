"""SMT multi-program mixes: fetch-policy comparison on a 2- and 4-thread mix.

Runs each named mix under round-robin, ICOUNT and confidence-gating fetch
and reports per-thread IPC, weighted speedup, harmonic fairness and the
wasted-energy fraction.  The headline expectation mirrors the paper's
single-thread result transplanted to thread selection: gating fetch on
branch confidence trims wasted (wrong-path) energy relative to
confidence-blind round-robin arbitration.
"""

from benchmarks.conftest import bench_cache, bench_instructions, bench_jobs, bench_warmup, run_once
from repro.experiments.engine import make_smt_cell, smt_baseline_cells
from repro.experiments.scheduler import SweepScheduler
from repro.report.smt import format_smt_report
from repro.smt.metrics import harmonic_fairness, weighted_speedup
from repro.smt.policies import POLICY_NAMES

_MIXES = ("mix2-branchy", "mix4-diverse")


def _run_mixes():
    scheduler = SweepScheduler(jobs=bench_jobs(), cache=bench_cache())
    cells = {}
    batch = []
    for mix in _MIXES:
        for policy in POLICY_NAMES:
            cell = make_smt_cell(
                mix,
                policy=policy,
                instructions=bench_instructions() // 2,
                warmup=bench_warmup() // 2,
            )
            cells[(mix, policy)] = (len(batch), cell)
            batch.append(cell)
    references = {
        mix: smt_baseline_cells(cells[(mix, POLICY_NAMES[0])][1]) for mix in _MIXES
    }
    offsets = {}
    for mix, ref_cells in references.items():
        offsets[mix] = len(batch)
        batch.extend(ref_cells)
    results = scheduler.run(batch)
    rows = {}
    for (mix, policy), (index, cell) in cells.items():
        result = results[index]
        alone = results[offsets[mix]:offsets[mix] + result.nthreads]
        rows[(mix, policy)] = (result, alone)
    return rows


def test_smt_mix_policy_comparison(benchmark, capsys):
    rows = run_once(benchmark, _run_mixes)
    with capsys.disabled():
        for (mix, policy), (result, alone) in sorted(rows.items()):
            print()
            print(format_smt_report(result, alone))

    for (mix, policy), (result, alone) in rows.items():
        # Every thread made real progress under every policy.
        for entry in result.threads:
            assert entry["committed"] > 0, (mix, policy)
        alone_ipcs = [reference.ipc for reference in alone]
        ws = weighted_speedup(result.thread_ipcs, alone_ipcs)
        hf = harmonic_fairness(result.thread_ipcs, alone_ipcs)
        assert 0.0 < hf <= ws, (mix, policy)
        benchmark.extra_info[f"{mix}/{policy}"] = {
            "weighted_speedup": round(ws, 3),
            "fairness": round(hf, 3),
            "wasted_energy_pct": round(result.wasted_energy_fraction * 100, 2),
        }

    # The headline claim: confidence gating wastes less energy than
    # confidence-blind round-robin on the branchy mix.
    blind = rows[("mix2-branchy", "round-robin")][0].wasted_energy_fraction
    gated = rows[("mix2-branchy", "confidence-gating")][0].wasted_energy_fraction
    assert gated < blind
