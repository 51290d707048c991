"""Byte-identical parity of every refactored experiment driver.

The study-layer refactor rewired all seven drivers (figures, tables,
ablations, policy search, campaign, runner, SMT report) through
``StudySpec`` + ``SweepScheduler``.  These tests pin each driver's
*formatted output* against goldens captured on the pre-refactor code, so
any behavioural drift — a different cell enumerated, a different seed
convention, a float formatted through a different path — fails loudly.

The goldens live in ``tests/goldens/study_goldens.json``.  Re-pin (only
when an intentional simulator change ships) with::

    PYTHONPATH=src python tests/test_study_parity.py --pin
"""

from __future__ import annotations

import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "study_goldens.json"
)

# Small but non-trivial run lengths: long enough that throttling fires and
# every formatted digit is exercised, short enough for the tier-1 suite.
_INSTR = 1_500
_WARMUP = 400
_BENCHMARKS = ("go", "gzip")


def _generate() -> dict:
    """Render every driver's formatted output at parity scale.

    Written purely against the public driver APIs, so the same code runs
    on the pre-refactor tree (to pin) and the post-refactor tree (to
    verify).
    """
    from repro.experiments import ablations as abl
    from repro.experiments import figures as fig
    from repro.experiments import tables as tab
    from repro.experiments.campaign import format_campaign, run_campaign
    from repro.experiments.engine import (
        make_smt_cell,
        result_to_dict,
        smt_baseline_cells,
    )
    from repro.experiments.policy_search import (
        enumerate_policies,
        format_points,
        search_policies,
    )
    from repro.experiments.runner import ExperimentRunner, run_benchmark
    from repro.experiments.scheduler import SweepScheduler
    from repro.report.smt import format_smt_report

    out = {}
    runner = ExperimentRunner(instructions=_INSTR, warmup=_WARMUP)

    # --- figures -----------------------------------------------------------
    for name, driver in (
        ("figure1", fig.figure1),
        ("figure3", fig.figure3),
        ("figure4", fig.figure4),
        ("figure5", fig.figure5),
    ):
        out[name] = fig.format_figure(driver(runner, benchmarks=_BENCHMARKS))
    out["figure6"] = fig.format_sweep(
        "figure6 (C2)",
        fig.figure6(depths=(6, 14), instructions=1_200, benchmarks=("gzip",)),
        "depth",
    )
    out["figure7"] = fig.format_sweep(
        "figure7 (C2)",
        fig.figure7(total_sizes_kb=(8, 32), instructions=1_200, benchmarks=("gzip",)),
        "total KB",
    )

    # --- tables ------------------------------------------------------------
    out["table1"] = tab.format_table1(tab.table1(runner))

    # --- ablations ---------------------------------------------------------
    out["estimator-swap"] = fig.format_figure(
        abl.estimator_swap(runner, benchmarks=("go",))
    )
    out["escalation-rule"] = fig.format_figure(
        abl.escalation_rule(runner, benchmarks=("go",))
    )
    out["gating-threshold"] = fig.format_figure(
        abl.gating_threshold_sweep(runner, thresholds=(1, 3), benchmarks=("go",))
    )
    out["clock-gating"] = json.dumps(
        abl.clock_gating_styles(1_200, 300, benchmarks=("gzip",)),
        sort_keys=True, indent=1,
    )
    out["mshr"] = json.dumps(
        abl.mshr_sensitivity((2, 8), 1_200, 300, benchmarks=("gzip",)),
        sort_keys=True, indent=1,
    )

    # --- campaign ----------------------------------------------------------
    out["campaign"] = format_campaign(
        run_campaign(
            {"C2": ("throttle", "C2"), "A5": ("throttle", "A5")},
            benchmarks=("gzip",),
            seeds=2,
            instructions=1_200,
            name="parity",
        )
    )

    # --- policy search -----------------------------------------------------
    policies = enumerate_policies(include_decode=False, include_no_select=False)
    out["policy-search"] = format_points(
        search_policies(
            benchmarks=("gzip",), instructions=1_200, policies=policies[:4]
        )
    )

    # --- runner (one-off run, full result payload) -------------------------
    out["run"] = json.dumps(
        result_to_dict(
            run_benchmark(
                "go", ("throttle", "C2"), instructions=_INSTR, warmup=_WARMUP
            )
        ),
        sort_keys=True, indent=1,
    )

    # --- SMT mix report ----------------------------------------------------
    cell = make_smt_cell("mix2-branchy", instructions=1_200, warmup=300)
    results = SweepScheduler().run_cells([cell] + smt_baseline_cells(cell))
    out["smt-mix"] = format_smt_report(results[0], results[1:])

    return out


@pytest.fixture(scope="module")
def generated():
    return _generate()


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


_KEYS = (
    "figure1", "figure3", "figure4", "figure5", "figure6", "figure7",
    "table1", "estimator-swap", "escalation-rule", "gating-threshold",
    "clock-gating", "mshr", "campaign", "policy-search", "run", "smt-mix",
)


def test_golden_file_covers_every_driver(goldens):
    assert sorted(goldens) == sorted(_KEYS)


@pytest.mark.parametrize("key", _KEYS)
def test_driver_output_is_byte_identical_to_pre_refactor(key, generated, goldens):
    assert generated[key] == goldens[key]


if __name__ == "__main__":
    if "--pin" not in sys.argv:
        raise SystemExit("usage: python tests/test_study_parity.py --pin")
    payload = _generate()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(payload)} goldens to {GOLDEN_PATH}")
