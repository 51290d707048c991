"""Ablations: what each design choice of Selective Throttling buys.

Runs three ablations of ``repro.experiments.ablations`` on a subset of
the suite:

1. estimator swap    — C2 on BPRU (the paper's choice) vs JRS vs oracle;
2. escalation rule   — the §4.2 escalate-only rule on vs off;
3. gating threshold  — Pipeline Gating at thresholds 1-4.

Usage::

    python examples/ablation_study.py [instructions]
"""

import sys

from repro.experiments.ablations import (
    escalation_rule,
    estimator_swap,
    gating_threshold_sweep,
)
from repro.experiments.figures import format_figure
from repro.experiments.runner import ExperimentRunner

BENCHMARKS = ("go", "gcc", "twolf", "compress")


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    runner = ExperimentRunner(instructions=instructions, warmup=instructions // 3)

    print("=== 1. Estimator swap (policy C2) ===")
    swap = estimator_swap(runner, benchmarks=BENCHMARKS)
    print(format_figure(swap))
    averages = swap.averages()
    gap = (
        averages["C2/perfect"]["ed_improvement_pct"]
        - averages["C2/bpru"]["ed_improvement_pct"]
    )
    print(
        f"\nheadroom left on the table by realistic confidence estimation: "
        f"{gap:.1f} pp of E-D improvement"
    )
    print(
        "JRS-driven throttling has no VLC level and mislabels aggressively —"
        " the paper's reason for the four-level BPRU."
    )

    print("\n=== 2. Escalate-only rule (policy C2) ===")
    print(format_figure(escalation_rule(runner, benchmarks=BENCHMARKS)))
    print(
        "\nescalate-only holds throttles at the most restrictive armed level;"
        "\nlatest-wins lets a confident later branch de-escalate early."
    )

    print("\n=== 3. Pipeline Gating threshold sweep ===")
    print(format_figure(gating_threshold_sweep(runner, benchmarks=BENCHMARKS)))
    print(
        "\nthe paper (after Manne et al.) uses N=2: lower thresholds gate"
        "\nconstantly and destroy performance, higher ones stop saving power."
    )


if __name__ == "__main__":
    main()
