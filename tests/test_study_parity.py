"""Byte-identical parity of every experiment's formatted output.

Every experiment (figures, tables, ablations, policy search, campaign,
one-off run, SMT report) runs as a ``StudySpec`` on a ``SweepScheduler``.
These tests pin each one's *formatted output* against goldens captured
before the study layer existed, so any behavioural drift — a different
cell enumerated, a different seed convention, a float formatted through
a different path — fails loudly.

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
    """Render every study's formatted output at parity scale.

    Written against the study API alone (``get_study``, the library
    builders, ``run_study`` on one ``SweepScheduler``), so the same code
    runs on any tree that has that API, to pin or to verify.
    """
    import repro.studies.library as lib
    from repro.experiments.engine import (
        make_cell,
        make_smt_cell,
        result_to_dict,
        simulate,
        smt_baseline_cells,
    )
    from repro.experiments.policy_search import enumerate_policies, format_points
    from repro.experiments.scheduler import SweepScheduler
    from repro.report.smt import format_smt_report
    from repro.studies import StudyContext, get_study, run_study

    out = {}
    scheduler = SweepScheduler()

    def run(spec, instructions=_INSTR, warmup=_WARMUP, **context):
        context = StudyContext(instructions=instructions, warmup=warmup, **context)
        return run_study(spec, context, executor=scheduler)

    # --- figures -----------------------------------------------------------
    for name in ("figure1", "figure3", "figure4", "figure5"):
        out[name] = run(get_study(name), benchmarks=_BENCHMARKS).render()
    out["figure6"] = run(
        lib.depth_sweep_study((6, 14)), instructions=1_200, warmup=None,
        benchmarks=("gzip",),
    ).render()
    out["figure7"] = run(
        lib.table_size_sweep_study((8, 32)), instructions=1_200, warmup=None,
        benchmarks=("gzip",),
    ).render()

    # --- tables ------------------------------------------------------------
    out["table1"] = run(get_study("table1")).render()

    # --- ablations ---------------------------------------------------------
    out["estimator-swap"] = run(
        get_study("estimator-swap"), benchmarks=("go",)
    ).render()
    out["escalation-rule"] = run(
        get_study("escalation-rule"), benchmarks=("go",)
    ).render()
    out["gating-threshold"] = run(
        lib.gating_threshold_study((1, 3)), benchmarks=("go",)
    ).render()
    out["clock-gating"] = json.dumps(
        run(get_study("clock-gating"), instructions=1_200, warmup=300,
            benchmarks=("gzip",)).artifact,
        sort_keys=True, indent=1,
    )
    out["mshr"] = json.dumps(
        run(lib.mshr_study((2, 8)), instructions=1_200, warmup=300,
            benchmarks=("gzip",)).artifact,
        sort_keys=True, indent=1,
    )

    # --- campaign ----------------------------------------------------------
    out["campaign"] = run(
        lib.campaign_study(
            {"C2": ("throttle", "C2"), "A5": ("throttle", "A5")}, name="parity"
        ),
        instructions=1_200, warmup=None, benchmarks=("gzip",), seeds=2,
    ).render()

    # --- policy search -----------------------------------------------------
    policies = enumerate_policies(include_decode=False, include_no_select=False)
    out["policy-search"] = format_points(
        run(
            lib.policy_study(policies[:4], benchmarks=("gzip",)),
            instructions=1_200, warmup=400, benchmarks=("gzip",),
        ).artifact
    )

    # --- one-off run (full result payload) ---------------------------------
    out["run"] = json.dumps(
        result_to_dict(simulate(make_cell(
            "go", ("throttle", "C2"), instructions=_INSTR, warmup=_WARMUP
        ))),
        sort_keys=True, indent=1,
    )

    # --- SMT mix report ----------------------------------------------------
    cell = make_smt_cell("mix2-branchy", instructions=1_200, warmup=300)
    results = scheduler.run_cells([cell] + smt_baseline_cells(cell))
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
