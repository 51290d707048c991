"""Quickstart: simulate one benchmark with and without Selective Throttling.

Runs the `go` benchmark (the suite's worst predictor case, 19.7% gshare
miss rate in the paper's Table 2) on the Table-3 baseline core, then again
under the paper's best configuration C2 (VLC: fetch stall, LC: quarter
fetch bandwidth + no-select), and prints the paper's four metrics.

Usage::

    python examples/quickstart.py [benchmark] [instructions]
"""

from __future__ import annotations

import sys

from repro import compare, make_cell, simulate


def main(argv) -> int:
    benchmark = argv[1] if len(argv) > 1 else "go"
    instructions = int(argv[2]) if len(argv) > 2 else 20_000

    print(f"Simulating {benchmark!r} for {instructions} instructions ...")

    baseline = simulate(make_cell(benchmark, ("baseline",), instructions=instructions))
    print(
        f"  baseline: IPC {baseline.ipc:.2f}, "
        f"{baseline.average_power_watts:.1f} W, "
        f"miss rate {baseline.miss_rate * 100:.1f}%, "
        f"{baseline.wasted_energy_fraction * 100:.1f}% of energy wasted "
        f"on mis-speculated instructions"
    )

    throttled = simulate(
        make_cell(benchmark, ("throttle", "C2"), instructions=instructions)
    )
    print(
        f"  C2:       IPC {throttled.ipc:.2f}, "
        f"{throttled.average_power_watts:.1f} W"
    )

    result = compare(baseline, throttled)
    print()
    print(f"Selective Throttling (C2) on {benchmark}:")
    print(f"  speedup            {result.speedup:.3f}  (1.0 = no slowdown)")
    print(f"  power savings      {result.power_savings_pct:6.2f} %")
    print(f"  energy savings     {result.energy_savings_pct:6.2f} %")
    print(f"  energy-delay gain  {result.ed_improvement_pct:6.2f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
