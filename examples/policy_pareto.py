"""Map the whole throttle-policy space and find its Pareto frontier.

The paper hand-picks 22 policies; this example enumerates the fetch-only
and fetch+noselect subspaces, evaluates them on three benchmarks, and
prints the (speedup, energy) Pareto frontier — checking whether the
paper's chosen points (A5, C2) are actually non-dominated on this
substrate.

Usage::

    python examples/policy_pareto.py [instructions]
"""

import sys

from repro.experiments.policy_search import (
    enumerate_policies,
    format_points,
    pareto_frontier,
)
from repro.studies import StudyContext, run_study
from repro.studies.library import policy_study

BENCHMARKS = ("go", "twolf", "gcc")


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    policies = enumerate_policies(include_decode=False)
    print(
        f"evaluating {len(policies)} policies x {len(BENCHMARKS)} benchmarks "
        f"({instructions} instructions each)..."
    )
    points = run_study(
        policy_study(policies, benchmarks=BENCHMARKS),
        StudyContext(instructions=instructions, warmup=instructions // 3),
    ).artifact

    print("\n=== top policies by energy-delay ===")
    print(format_points(points, limit=12))

    frontier = pareto_frontier(points)
    print(f"\n=== Pareto frontier over (speedup, energy savings) "
          f"— {len(frontier)} of {len(points)} policies ===")
    print(format_points(frontier, limit=len(frontier)))

    paper_points = {
        "lc[fetch/4]-vlc[fetch=0]": "A5/C1",
        "lc[fetch/4+noselect]-vlc[fetch=0+noselect]": "~C2",
    }
    frontier_names = {p.policy_name for p in frontier}
    print()
    for name, label in paper_points.items():
        verdict = "ON the frontier" if name in frontier_names else "dominated"
        print(f"paper's {label:5s} ({name}): {verdict}")


if __name__ == "__main__":
    main()
