"""Per-unit power analysis of one benchmark (a single-benchmark Table 1).

Shows where the watts go on the baseline machine, how much of each block's
energy is wasted on mis-speculated instructions, and what the best policy
(C2) recovers — with text bar charts.

Usage::

    python examples/power_breakdown.py [benchmark] [instructions]
"""

import sys

from repro.experiments.engine import make_cell, simulate
from repro.power.units import TABLE1_SHARES, PowerUnit
from repro.report.ascii import bar_chart
from repro.workloads.suite import BENCHMARK_NAMES


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "go"
    if benchmark not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark; choose from {BENCHMARK_NAMES}")
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 12_000

    baseline, throttled = (
        simulate(make_cell(
            benchmark, spec, instructions=instructions, warmup=instructions // 3,
        ))
        for spec in (("baseline",), ("throttle", "C2"))
    )

    print(f"=== {benchmark}: baseline power breakdown ===")
    shares = {
        unit.name.lower(): baseline.breakdown[unit.name.lower()]["share"] * 100
        for unit in PowerUnit
    }
    print(bar_chart(shares, unit="%"))
    print(f"\naverage power: {baseline.average_power_watts:.1f} W "
          f"(paper baseline: 56.4 W suite average)")

    print("\n=== fraction of overall power wasted by mis-speculation ===")
    wasted = {
        unit.name.lower():
            baseline.breakdown[unit.name.lower()]["wasted_of_overall"] * 100
        for unit in PowerUnit
    }
    print(bar_chart(wasted, unit="%"))
    total_wasted = sum(wasted.values())
    print(f"\ntotal wasted: {total_wasted:.1f}% of overall power "
          f"(paper suite average: 27.9%)")

    print("\n=== what Selective Throttling (C2) recovers ===")
    power_saving = 100 * (
        1 - throttled.average_power_watts / baseline.average_power_watts
    )
    energy_saving = 100 * (1 - throttled.energy_joules / baseline.energy_joules)
    slowdown = 100 * (1 - baseline.cycles / throttled.cycles)
    print(f"  power savings   {power_saving:6.1f}%")
    print(f"  energy savings  {energy_saving:6.1f}%")
    print(f"  slowdown        {slowdown:6.1f}%")
    print(f"  fetch-throttled cycles: {throttled.extra['fetch_throttled_cycles']}")
    print(f"  selections blocked:     {throttled.extra['selection_blocked']}")


if __name__ == "__main__":
    main()
