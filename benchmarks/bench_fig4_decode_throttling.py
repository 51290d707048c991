"""Figure 4: decode throttling B1-B8 vs Pipeline Gating B9 (all policies
stall fetch on VLC).

Paper: decode-only throttling (B1-B3) hurts performance quickly (B3 ~12%
slowdown, negative E-D); combined fetch+decode (B7) edges out A5 on energy
(11.9%) but loses on E-D (7.8% vs 8.6%)."""

from benchmarks.conftest import run_study_once
from repro.studies import get_study


def test_figure4_decode_throttling(benchmark, scheduler, capsys):
    run = run_study_once(benchmark, scheduler, get_study("figure4"))
    figure = run.artifact
    with capsys.disabled():
        print()
        print(run.render())

    averages = figure.averages()
    # Stalling decode (B3) must cost more performance than halving it (B1).
    assert averages["B1"]["speedup"] >= averages["B3"]["speedup"]
    # Adding decode throttling to fetch throttling increases power savings.
    assert averages["B7"]["power_savings_pct"] > 0.0
    for name in ("B1", "B2", "B4", "B5", "B7"):
        assert averages[name]["energy_savings_pct"] > 0.0, name
    for label, row in averages.items():
        benchmark.extra_info[label] = {
            "speedup": round(row["speedup"], 3),
            "energy": round(row["energy_savings_pct"], 2),
            "ed": round(row["ed_improvement_pct"], 2),
        }
