"""Explore the whole throttling policy space on one benchmark.

Sweeps every named experiment of Figures 3-5 (A1-A6, B1-B8, C1-C6) plus
Pipeline Gating and the three oracles over a chosen benchmark, printing a
league table sorted by energy-delay improvement.  This is the figure-level
view of the paper condensed to a single benchmark — handy when tuning a
new policy.

Usage::

    python examples/policy_exploration.py [benchmark] [instructions]
"""

from __future__ import annotations

import sys

from repro import SweepScheduler, compare, list_experiments, make_cell
from repro.core.policy import GATING_EXPERIMENTS


def main(argv) -> int:
    benchmark = argv[1] if len(argv) > 1 else "twolf"
    instructions = int(argv[2]) if len(argv) > 2 else 15_000

    scheduler = SweepScheduler()
    baseline = scheduler.run_cells(
        [make_cell(benchmark, ("baseline",), instructions=instructions)]
    )[0]
    print(
        f"{benchmark}: baseline IPC {baseline.ipc:.2f}, "
        f"{baseline.average_power_watts:.1f} W, "
        f"{baseline.wasted_energy_fraction * 100:.1f}% wasted"
    )

    specs = {}
    for name in list_experiments():
        if name in GATING_EXPERIMENTS:
            continue  # A7/B9/C7 are all the same gating mechanism
        specs[name] = ("throttle", name)
    specs["gating"] = ("gating", 2)
    for mode in ("fetch", "decode", "select"):
        specs[f"oracle-{mode}"] = ("oracle", mode)

    candidates = scheduler.run_cells([
        make_cell(benchmark, spec, instructions=instructions, label=label)
        for label, spec in specs.items()
    ])
    results = [compare(baseline, candidate) for candidate in candidates]

    results.sort(key=lambda c: c.ed_improvement_pct, reverse=True)
    print()
    print(f"{'policy':<14s}{'speedup':>8s} {'power%':>8s} {'energy%':>8s} {'E-D%':>8s}")
    for comparison in results:
        print(
            f"{comparison.label:<14s}{comparison.speedup:8.3f} "
            f"{comparison.power_savings_pct:8.2f} "
            f"{comparison.energy_savings_pct:8.2f} "
            f"{comparison.ed_improvement_pct:8.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
