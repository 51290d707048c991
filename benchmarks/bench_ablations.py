"""Ablation benches beyond the paper (``repro.experiments.ablations``).

Not reproductions of any paper figure — these isolate the design choices
the paper asserts but does not measure: the four-level BPRU categorisation
(via estimator swap), the escalate-only rule, the gating threshold, the
clock-gating style and the MSHR count behind the oracle-fetch speedup.
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import (
    clock_gating_styles,
    escalation_rule,
    estimator_swap,
    gating_threshold_sweep,
    mshr_sensitivity,
)
from repro.experiments.figures import format_figure


def test_ablation_estimator_swap(benchmark, runner, capsys):
    figure = run_once(benchmark, lambda: estimator_swap(runner))
    with capsys.disabled():
        print()
        print(format_figure(figure))
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


def test_ablation_escalation_rule(benchmark, runner, capsys):
    figure = run_once(benchmark, lambda: escalation_rule(runner))
    with capsys.disabled():
        print()
        print(format_figure(figure))
    averages = figure.averages()
    escalate = averages["C2/escalate"]
    latest = averages["C2/latest-wins"]
    # Escalate-only holds throttles longer: it must save at least as much
    # power as latest-wins (it may or may not win on energy-delay).
    assert escalate["power_savings_pct"] >= latest["power_savings_pct"] - 0.5
    benchmark.extra_info["escalate_ed"] = round(escalate["ed_improvement_pct"], 2)
    benchmark.extra_info["latest_ed"] = round(latest["ed_improvement_pct"], 2)


def test_ablation_gating_threshold(benchmark, runner, capsys):
    figure = run_once(benchmark, lambda: gating_threshold_sweep(runner))
    with capsys.disabled():
        print()
        print(format_figure(figure))
    averages = figure.averages()
    # Higher thresholds gate less: speedup must be monotone non-decreasing
    # and power savings monotone non-increasing across the sweep.
    speedups = [averages[f"gating-th{n}"]["speedup"] for n in (1, 2, 3, 4)]
    powers = [averages[f"gating-th{n}"]["power_savings_pct"] for n in (1, 2, 3, 4)]
    assert all(b >= a - 0.01 for a, b in zip(speedups, speedups[1:]))
    assert all(b <= a + 0.5 for a, b in zip(powers, powers[1:]))


def test_ablation_clock_gating_styles(benchmark, capsys):
    from benchmarks.conftest import bench_instructions, bench_warmup

    styles = run_once(
        benchmark,
        lambda: clock_gating_styles(bench_instructions(), bench_warmup()),
    )
    with capsys.disabled():
        print()
        print("clock-gating styles: suite averages")
        for style, row in styles.items():
            print(
                f"  {style}: {row['average_power_watts']:6.1f} W, "
                f"wasted {row['wasted_fraction'] * 100:5.1f}%"
            )
    # cc0 (no gating) burns the most power; cc2 (perfect gating) the least;
    # cc3 sits between cc2 and cc1 because of its 10% idle floor.
    assert styles["cc0"]["average_power_watts"] > styles["cc1"]["average_power_watts"]
    assert styles["cc1"]["average_power_watts"] >= styles["cc2"]["average_power_watts"]
    assert styles["cc2"]["average_power_watts"] <= styles["cc3"]["average_power_watts"]


def test_ablation_mshr_sensitivity(benchmark, capsys):
    from benchmarks.conftest import bench_instructions, bench_warmup

    sweep = run_once(
        benchmark,
        lambda: mshr_sensitivity(
            (2, 8, 16),
            bench_instructions(),
            bench_warmup(),
            benchmarks=("go", "gcc", "twolf", "compress"),
        ),
    )
    with capsys.disabled():
        print()
        print("MSHR sensitivity (go/gcc/twolf/compress):")
        for count, row in sweep.items():
            print(
                f"  mshr={count:2d}: baseline IPC {row['baseline_ipc']:.2f}, "
                f"oracle-fetch speedup {row['oracle_fetch_speedup']:.3f}"
            )
    # More MSHRs help the baseline absorb wrong-path misses.
    assert sweep[16]["baseline_ipc"] >= sweep[2]["baseline_ipc"] - 0.02
