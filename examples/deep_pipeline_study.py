"""The paper's motivating trend: deeper pipelines waste more on speculation.

Sweeps pipeline depth (the paper's Figure 6 axis) and reports, per depth:
the baseline's wasted-energy fraction, and what Selective Throttling (C2)
recovers.  Also demonstrates the paper's §5.3.1 recipe of stretching the
in-order front-end and, at the deep end, the execution/D-cache latencies.

Usage::

    python examples/deep_pipeline_study.py [instructions]
"""

from __future__ import annotations

import sys

from repro import SweepScheduler, compare, make_cell, table3_config
from repro.utils.stats import arithmetic_mean, geometric_mean
from repro.workloads.suite import BENCHMARK_NAMES

DEPTHS = (6, 10, 14, 20, 28)


def main(argv) -> int:
    instructions = int(argv[1]) if len(argv) > 1 else 10_000
    benchmarks = BENCHMARK_NAMES[:4]  # keep the sweep quick; pass more if patient

    print(f"{'depth':>6s} {'front':>6s} {'IPC':>6s} {'wasted%':>8s} "
          f"{'C2 speedup':>11s} {'C2 energy%':>11s} {'C2 E-D%':>8s}")
    scheduler = SweepScheduler()
    for depth in DEPTHS:
        config = table3_config().with_depth(depth)
        ipcs, wasted, comparisons = [], [], []
        for benchmark in benchmarks:
            baseline, throttled = scheduler.run_cells([
                make_cell(benchmark, spec, config=config, instructions=instructions)
                for spec in (("baseline",), ("throttle", "C2"))
            ])
            ipcs.append(baseline.ipc)
            wasted.append(baseline.wasted_energy_fraction)
            comparisons.append(compare(baseline, throttled))
        print(
            f"{depth:6d} {config.front_end_stages:6d} "
            f"{arithmetic_mean(ipcs):6.2f} "
            f"{arithmetic_mean(wasted) * 100:7.1f}% "
            f"{geometric_mean(c.speedup for c in comparisons):11.3f} "
            f"{arithmetic_mean(c.energy_savings_pct for c in comparisons):11.2f} "
            f"{arithmetic_mean(c.ed_improvement_pct for c in comparisons):8.2f}"
        )
    print()
    print("Paper Figure 6: savings grow with depth "
          "(energy ~11% @ 6 stages -> ~17% @ 28).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
