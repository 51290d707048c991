"""The paper-claims ledger (the ``fidelity`` study).

The rows cite their sources, the Table 1 and Table 2 rows hold the
constants the simulator is calibrated to (not copies), a short slice
gives every row a verdict that its JSON export repeats, and a gated
relation fails when the measured artifact contradicts it.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess

import pytest

from repro.power.units import (
    TABLE1_SHARES, TABLE1_TOTAL_WASTED, TABLE1_TOTAL_WATTS, TABLE1_WASTED,
    PowerUnit,
)
from repro.studies import StudyContext, get_study, run_study
from repro.studies import fidelity
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
BENCH_CITATION = re.compile(r"(benchmarks/bench_\w+\.py):(\d+) @ (c92c7bd)")
ALL_CLAIMS = list(fidelity.CLAIMS) + fidelity._table2_claims(BENCHMARK_NAMES)
BY_ID = {claim.id: claim for claim in ALL_CLAIMS}


@pytest.fixture(scope="module")
def go_run():
    context = StudyContext(benchmarks=("go",), instructions=600, warmup=200)
    return run_study(get_study("fidelity"), context)


def test_every_row_cites_a_source():
    assert len(BY_ID) == len(ALL_CLAIMS)
    for claim in ALL_CLAIMS:
        assert claim.source, claim.id
        assert claim.probes, claim.id
        if claim.paper is None:
            # Beyond the paper: the retired bench assert is the source.
            assert BENCH_CITATION.fullmatch(claim.source), claim.id
        if claim.gate:
            assert claim.test is not None, claim.id
            assert BENCH_CITATION.search(claim.source), claim.id


def _git(*args):
    shown = subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True
    )
    if shown.returncode != 0:
        pytest.skip("the cited commit is not in this checkout")
    return shown.stdout.splitlines()


def test_bench_citations_match_the_cited_lines():
    """Gated rows cite an assert; prose rows cite the line holding the value.

    Every assert of the retired bench files is cited by a gated row.
    """
    files = {
        path: _git("show", f"c92c7bd:{path}")
        for path in _git("ls-tree", "--name-only", "c92c7bd", "benchmarks/")
    }
    asserts = {
        (path, number)
        for path, lines in files.items()
        for number, text in enumerate(lines, start=1)
        if text.lstrip().startswith("assert")
    }
    cited = set()
    for claim in ALL_CLAIMS:
        match = BENCH_CITATION.search(claim.source)
        if match is None:
            continue
        path, line, _ = match.groups()
        text = files[path][int(line) - 1]
        if claim.gate:
            assert text.lstrip().startswith("assert"), claim.id
            cited.add((path, int(line)))
        if isinstance(claim.paper, str):
            for number in re.findall(r"\d+(?:\.\d+)?", claim.paper):
                assert number in text, (claim.id, number, text)
    assert cited == asserts


def test_table_rows_hold_the_imported_constants():
    assert BY_ID["table1.watts"].paper is TABLE1_TOTAL_WATTS
    assert BY_ID["table1.wasted"].paper is TABLE1_TOTAL_WASTED
    assert BY_ID["table1.icache-wasted"].paper is TABLE1_WASTED["icache"]
    for unit in PowerUnit:
        row = BY_ID[f"table1.share.{unit.name.lower()}"]
        assert row.paper is TABLE1_SHARES[unit]
    for name in BENCHMARK_NAMES:
        assert BY_ID[f"table2.{name}"].paper is (
            benchmark_spec(name).target_miss_rate
        )
    # No paper value in the ledger module is a typed-in number: numbers
    # come from the constants, prose values are quoted strings.
    with open(fidelity.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    papers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", "") == "_reported":
                papers.append(node.args[3])
            papers.extend(k.value for k in node.keywords if k.arg == "paper")
    assert len(papers) > len(BENCHMARK_NAMES)
    for paper in papers:
        assert not (
            isinstance(paper, ast.Constant)
            and isinstance(paper.value, (int, float))
        ), ast.dump(paper)


def test_go_slice_gives_every_row_a_verdict(go_run):
    rows = go_run.artifact
    assert {row["verdict"] for row in rows} <= set(fidelity.VERDICTS)
    ids = [row["id"] for row in rows]
    assert ids == [claim.id for claim in fidelity.CLAIMS] + ["table2.go"]
    headline = next(row for row in rows if row["id"] == "fig5.C2-best")
    assert headline["verdict"] in ("ok", "deviation")
    assert not headline["gate"]


def test_json_export_agrees_with_the_rendered_rows(go_run):
    payload = json.loads(go_run.spec.to_json(go_run.artifact))
    assert payload["schema"] == "repro-fidelity/1"
    text = go_run.render()
    counts = {v: 0 for v in fidelity.VERDICTS}
    for row in payload["rows"]:
        counts[row["verdict"]] += 1
        gate = "gate" if row["gate"] else "    "
        assert re.search(
            rf"^{re.escape(row['id'])} +{row['verdict']} +{gate}  "
            rf"{re.escape(row['claim'])}$",
            text, re.M,
        ), row["id"]
        assert (
            f"paper {row['paper']} [{row['source']}]; ours {row['ours']}\n"
            in text + "\n"
        ), row["id"]
    summary = ", ".join(f"{n} {v}" for v, n in counts.items())
    assert text.startswith(
        f"fidelity ledger: {len(payload['rows'])} claims ({summary})\n"
    )


def test_gated_relation_fails_on_a_doctored_artifact():
    claim = BY_ID["fig3.A1>=A6-speed"]
    artifacts = {"figure3": {"A1": {"speedup": 0.97}, "A6": {"speedup": 0.99}}}
    assert claim.evaluate(artifacts)["verdict"] == "fail"
    artifacts["figure3"]["A6"]["speedup"] = 0.88
    assert claim.evaluate(artifacts)["verdict"] == "ok"


def test_ungated_relation_records_a_deviation():
    claim = BY_ID["fig5.C2-best"]
    figure = {f"C{n}": {"ed_improvement_pct": float(n)} for n in range(1, 8)}
    assert claim.evaluate({"figure5": figure})["verdict"] == "deviation"
    figure["C2"]["ed_improvement_pct"] = 9.0
    assert claim.evaluate({"figure5": figure})["verdict"] == "ok"
    figure["C2"]["energy_savings_pct"] = 12.5
    reported = BY_ID["fig5.C2"].evaluate({"figure5": figure})
    assert reported["verdict"] == "reported"
    assert reported["paper"] == "13.5% energy, 8.5% E-D"
    assert reported["ours"] == "energy 12.5, ed 9"
