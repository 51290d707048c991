"""Figure 3: fetch throttling A1-A6 vs Pipeline Gating A7.

Paper averages: A1-A3 nearly no slowdown with 5-9% energy savings;
A5 the best tradeoff (11.7% energy, 8.6% E-D); A6/A7 save energy but
destroy the E-D product (A6 ~12% slowdown)."""

from benchmarks.conftest import run_study_once
from repro.studies import get_study


def test_figure3_fetch_throttling(benchmark, scheduler, capsys):
    run = run_study_once(benchmark, scheduler, get_study("figure3"))
    figure = run.artifact
    with capsys.disabled():
        print()
        print(run.render())

    averages = figure.averages()
    # Mild throttling (A1) must degrade performance less than full
    # stalling (A6) — the paper's central aggressiveness tradeoff.
    assert averages["A1"]["speedup"] >= averages["A6"]["speedup"]
    # All fetch-throttling experiments save energy.
    for name in ("A1", "A2", "A3", "A4", "A5", "A6"):
        assert averages[name]["energy_savings_pct"] > 0.0, name
    # More aggressive policies save more power.
    assert averages["A6"]["power_savings_pct"] > averages["A1"]["power_savings_pct"]
    for label, row in averages.items():
        benchmark.extra_info[label] = {
            "speedup": round(row["speedup"], 3),
            "energy": round(row["energy_savings_pct"], 2),
            "ed": round(row["ed_improvement_pct"], 2),
        }
