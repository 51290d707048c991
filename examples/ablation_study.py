"""Ablations: what each design choice of Selective Throttling buys.

Runs three registered ablation studies on one sweep scheduler (they
share their baselines through its memo) over a subset of the suite:

1. estimator swap    — C2 on BPRU (the paper's choice) vs JRS vs oracle;
2. escalation rule   — the §4.2 escalate-only rule on vs off;
3. gating threshold  — Pipeline Gating at thresholds 1-4.

Usage::

    python examples/ablation_study.py [instructions]
"""

import sys

from repro.experiments.scheduler import SweepScheduler
from repro.studies import StudyContext, get_study, run_study

BENCHMARKS = ("go", "gcc", "twolf", "compress")


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    context = StudyContext(
        benchmarks=BENCHMARKS, instructions=instructions, warmup=instructions // 3
    )
    scheduler = SweepScheduler()

    def run(name):
        return run_study(get_study(name), context, executor=scheduler)

    print("=== 1. Estimator swap (policy C2) ===")
    swap = run("estimator-swap")
    print(swap.render())
    averages = swap.artifact.averages()
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
    print(run("escalation-rule").render())
    print(
        "\nescalate-only holds throttles at the most restrictive armed level;"
        "\nlatest-wins lets a confident later branch de-escalate early."
    )

    print("\n=== 3. Pipeline Gating threshold sweep ===")
    print(run("gating-threshold").render())
    print(
        "\nthe paper (after Manne et al.) uses N=2: lower thresholds gate"
        "\nconstantly and destroy performance, higher ones stop saving power."
    )


if __name__ == "__main__":
    main()
