"""Ablation benches beyond the paper (the ablation studies).

Not reproductions of any paper figure — these isolate the design choices
the paper asserts but does not measure: the four-level BPRU categorisation
(via estimator swap), the escalate-only rule, the gating threshold, the
clock-gating style and the MSHR count behind the oracle-fetch speedup.
"""

from benchmarks.conftest import bench_context, run_study_once
from repro.studies import get_study
from repro.studies.library import mshr_study


def _figure(benchmark, scheduler, capsys, name):
    run = run_study_once(benchmark, scheduler, get_study(name))
    with capsys.disabled():
        print()
        print(run.render())
    return run.artifact


def test_ablation_estimator_swap(benchmark, scheduler, capsys):
    figure = _figure(benchmark, scheduler, capsys, "estimator-swap")
    averages = figure.averages()
    # The perfect estimator bounds both realistic ones on every metric.
    perfect = averages["C2/perfect"]
    bpru = averages["C2/bpru"]
    jrs = averages["C2/jrs"]
    assert perfect["ed_improvement_pct"] >= bpru["ed_improvement_pct"]
    assert perfect["energy_savings_pct"] >= bpru["energy_savings_pct"]
    # The binary JRS labels (no VLC level, low PVN) must cost performance
    # against the four-level BPRU — the paper's motivation for BPRU.
    assert bpru["speedup"] > jrs["speedup"]
    for label in ("C2/bpru", "C2/jrs", "C2/perfect"):
        benchmark.extra_info[label] = round(averages[label]["ed_improvement_pct"], 2)


def test_ablation_escalation_rule(benchmark, scheduler, capsys):
    figure = _figure(benchmark, scheduler, capsys, "escalation-rule")
    averages = figure.averages()
    escalate = averages["C2/escalate"]
    latest = averages["C2/latest-wins"]
    # Escalate-only holds throttles longer: it must save at least as much
    # power as latest-wins (it may or may not win on energy-delay).
    assert escalate["power_savings_pct"] >= latest["power_savings_pct"] - 0.5
    benchmark.extra_info["escalate_ed"] = round(escalate["ed_improvement_pct"], 2)
    benchmark.extra_info["latest_ed"] = round(latest["ed_improvement_pct"], 2)


def test_ablation_gating_threshold(benchmark, scheduler, capsys):
    figure = _figure(benchmark, scheduler, capsys, "gating-threshold")
    averages = figure.averages()
    # Higher thresholds gate less: speedup must be monotone non-decreasing
    # and power savings monotone non-increasing across the sweep.
    speedups = [averages[f"gating-th{n}"]["speedup"] for n in (1, 2, 3, 4)]
    powers = [averages[f"gating-th{n}"]["power_savings_pct"] for n in (1, 2, 3, 4)]
    assert all(b >= a - 0.01 for a, b in zip(speedups, speedups[1:]))
    assert all(b <= a + 0.5 for a, b in zip(powers, powers[1:]))


def test_ablation_clock_gating_styles(benchmark, scheduler, capsys):
    styles = _figure(benchmark, scheduler, capsys, "clock-gating")
    # cc0 (no gating) burns the most power; cc2 (perfect gating) the least;
    # cc3 sits between cc2 and cc1 because of its 10% idle floor.
    assert styles["cc0"]["average_power_watts"] > styles["cc1"]["average_power_watts"]
    assert styles["cc1"]["average_power_watts"] >= styles["cc2"]["average_power_watts"]
    assert styles["cc2"]["average_power_watts"] <= styles["cc3"]["average_power_watts"]


def test_ablation_mshr_sensitivity(benchmark, scheduler, capsys):
    run = run_study_once(
        benchmark, scheduler, mshr_study((2, 8, 16)),
        bench_context(("go", "gcc", "twolf", "compress")),
    )
    sweep = run.artifact
    with capsys.disabled():
        print()
        print(run.render())
    # More MSHRs help the baseline absorb wrong-path misses.
    assert sweep[16]["baseline_ipc"] >= sweep[2]["baseline_ipc"] - 0.02
