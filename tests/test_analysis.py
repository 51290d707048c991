"""The static-analysis pass: every rule family on fixture packages.

Each rule gets a violating snippet, a conforming snippet and (where the
rule has one) an allowlisted snippet, fed through
:class:`~repro.analysis.walker.ProjectIndex` exactly as ``repro check``
feeds the real tree.  Plus: the report formats, and the gate that the
repository's own ``src/`` is clean.
"""

from __future__ import annotations

import json
import os

from repro.analysis import run_check
from repro.analysis.registry import ALL_RULES, Violation
from repro.analysis.report import JSON_SCHEMA, render_json, render_text
from repro.analysis.walker import ProjectIndex

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def build_index(tmp_path, files):
    for rel, source in files.items():
        full = tmp_path / rel
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(source)
    return ProjectIndex.build(str(tmp_path))


def run_rule(index, rule_id):
    for rule in ALL_RULES:
        if rule.rule_id == rule_id:
            return rule.check(index)
    raise AssertionError(f"no such rule {rule_id}")


# ----------------------------------------------------------------------
# DET001: wall clock
# ----------------------------------------------------------------------

def test_det001_flags_wall_clock(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "import time\n"
            "from time import monotonic\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def tick():\n"
            "    return monotonic()\n"
            "def pure(x):\n"
            "    return x + 1\n"
        ),
    })
    violations = run_rule(index, "DET001")
    assert [(v.symbol, v.path) for v in violations] == [
        ("stamp", "pkg/mod.py"), ("tick", "pkg/mod.py"),
    ]
    assert "wall clock" in violations[0].message


def test_det001_resolves_datetime_aliases(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "from datetime import datetime as dt\n"
            "def when():\n"
            "    return dt.now()\n"
        ),
    })
    assert len(run_rule(index, "DET001")) == 1


def test_det001_allowlists_cache_maintenance(tmp_path):
    index = build_index(tmp_path, {
        "repro/experiments/engine.py": (
            "import time\n"
            "class ResultCache:\n"
            "    def info(self):\n"
            "        return time.time()\n"
            "    def prune(self, days):\n"
            "        return time.time() - days\n"
            "    def lookup(self):\n"
            "        return time.time()\n"
        ),
    })
    violations = run_rule(index, "DET001")
    # info/prune are allowlisted; lookup is not.
    assert [v.symbol for v in violations] == ["ResultCache.lookup"]


# ----------------------------------------------------------------------
# DET002: entropy
# ----------------------------------------------------------------------

def test_det002_flags_entropy_and_global_random(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "import os\n"
            "import random\n"
            "import uuid\n"
            "def a():\n"
            "    return random.random()\n"
            "def b():\n"
            "    return os.urandom(8)\n"
            "def c():\n"
            "    return uuid.uuid4()\n"
            "def d():\n"
            "    return random.Random()\n"
        ),
    })
    violations = run_rule(index, "DET002")
    assert [v.symbol for v in violations] == ["a", "b", "c", "d"]


def test_det002_accepts_seeded_instances(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "import random\n"
            "def make(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n"
        ),
    })
    assert run_rule(index, "DET002") == []


# ----------------------------------------------------------------------
# DET003: set iteration
# ----------------------------------------------------------------------

def test_det003_flags_set_iteration(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "def f(items):\n"
            "    seen = set(items)\n"
            "    out = []\n"
            "    for item in seen:\n"
            "        out.append(item)\n"
            "    return out\n"
            "def g(items):\n"
            "    return [x for x in {i * 2 for i in items}]\n"
            "def h(items):\n"
            "    return list(frozenset(items))\n"
        ),
    })
    violations = run_rule(index, "DET003")
    assert [v.symbol for v in violations] == ["f", "g", "h"]
    assert "sorted()" in violations[0].message


def test_det003_accepts_sorted_and_reductions(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "def f(items):\n"
            "    seen = set(items)\n"
            "    total = sum(seen)\n"          # order-insensitive
            "    top = max(seen)\n"
            "    hit = 3 in seen\n"
            "    return [x for x in sorted(seen)], total, top, hit\n"
        ),
    })
    assert run_rule(index, "DET003") == []


def test_det003_does_not_flag_dict_iteration(tmp_path):
    # Dicts iterate in insertion order (deterministic); only sets are
    # hash-ordered.
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "def f(mapping):\n"
            "    return [key for key in mapping] + list(mapping.keys())\n"
        ),
    })
    assert run_rule(index, "DET003") == []


# ----------------------------------------------------------------------
# HOT001: __slots__
# ----------------------------------------------------------------------

_SLOTLESS = (
    "class Hot:\n"
    "    def __init__(self):\n"
    "        self.x = 1\n"
)


def test_hot001_flags_slotless_hot_package_class(tmp_path):
    index = build_index(tmp_path, {"repro/pipeline/thing.py": _SLOTLESS})
    violations = run_rule(index, "HOT001")
    assert [v.symbol for v in violations] == ["Hot"]
    assert "__slots__" in violations[0].message


def test_hot001_ignores_cold_packages(tmp_path):
    index = build_index(tmp_path, {"repro/report/thing.py": _SLOTLESS})
    assert run_rule(index, "HOT001") == []


def test_hot001_exemptions(tmp_path):
    index = build_index(tmp_path, {
        "repro/power/thing.py": (
            "import enum\n"
            "from dataclasses import dataclass\n"
            "class Slotted:\n"
            "    __slots__ = ('x',)\n"
            "@dataclass\n"
            "class Config:\n"
            "    x: int = 1\n"
            "class Style(enum.Enum):\n"
            "    A = 'a'\n"
            "class BadThing(ValueError):\n"
            "    pass\n"
        ),
    })
    assert run_rule(index, "HOT001") == []


def test_hot001_allowlists_stage_classes(tmp_path):
    # Stage instances are a documented tick-rebinding extension point.
    index = build_index(tmp_path, {
        "repro/pipeline/stages/fetch.py": (
            "class FetchStage(Stage):\n"
            "    def __init__(self):\n"
            "        self.width = 4\n"
        ),
    })
    assert run_rule(index, "HOT001") == []


# ----------------------------------------------------------------------
# HOT002: stage method discipline
# ----------------------------------------------------------------------

def test_hot002_flags_closures_try_and_sum(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    def tick(self, cycle, activity):\n"
            "        total = sum(e.count for e in self.entries)\n"
            "        key = lambda e: e.seq\n"
            "        try:\n"
            "            pass\n"
            "        except ValueError:\n"
            "            pass\n"
        ),
    })
    violations = run_rule(index, "HOT002")
    messages = " / ".join(v.message for v in violations)
    assert len(violations) == 3
    assert "sum()" in messages
    assert "lambda" in messages
    assert "try block" in messages
    assert all(v.symbol == "CustomStage.tick" for v in violations)


def test_hot002_accepts_accumulator_loops(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    def tick(self, cycle, activity):\n"
            "        total = 0\n"
            "        for entry in self.entries:\n"
            "            total += entry.count\n"
            "        return total\n"
        ),
    })
    assert run_rule(index, "HOT002") == []


def test_hot002_ignores_non_stage_classes(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/helper.py": (
            "class Helper:\n"
            "    def compute(self):\n"
            "        return sum((1, 2, 3))\n"
        ),
    })
    assert run_rule(index, "HOT002") == []


# ----------------------------------------------------------------------
# CON001: stage contracts
# ----------------------------------------------------------------------

def test_con001_missing_contract(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    def tick(self, cycle, activity):\n"
            "        pass\n"
        ),
    })
    violations = run_rule(index, "CON001")
    assert len(violations) == 1
    assert "declares no CONTRACT" in violations[0].message


def test_con001_undeclared_write(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    CONTRACT = {'reads': (), 'writes': ('fetch_latch',)}\n"
            "    def tick(self, cycle, activity):\n"
            "        for thread in self.kernel.threads:\n"
            "            thread.fetch_latch.append(1)\n"
            "            thread.decode_latch.append(2)\n"
        ),
    })
    violations = run_rule(index, "CON001")
    # The undeclared touch surfaces as both a write and a read finding.
    assert violations
    assert any(
        "writes surface 'decode_latch'" in v.message for v in violations
    )
    assert all("decode_latch" in v.message for v in violations)


def test_con001_undeclared_read(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    CONTRACT = {'reads': (), 'writes': ('iq',)}\n"
            "    def tick(self, cycle, activity):\n"
            "        for thread in self.kernel.threads:\n"
            "            n = len(thread.rob.entries)\n"
            "            thread.iq.count = n\n"
        ),
    })
    violations = run_rule(index, "CON001")
    assert len(violations) == 1
    assert "reads surface 'rob'" in violations[0].message


def test_con001_conforming_stage_with_aliases(tmp_path):
    # Exercises alias tracking: a bound mutator, a call-result alias
    # and a self-attribute alias established in __init__.
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    CONTRACT = {\n"
            "        'reads': ('decode_latch',),\n"
            "        'writes': ('fetch_latch', 'completions'),\n"
            "    }\n"
            "    def __init__(self, kernel):\n"
            "        self.buckets = kernel.completions.buckets\n"
            "    def tick(self, cycle, activity):\n"
            "        for thread in self.kernel.threads:\n"
            "            pipe = thread.fetch_latch\n"
            "            popleft = pipe.popleft\n"
            "            depth = len(thread.decode_latch)\n"
            "            bucket = self.buckets.get(cycle)\n"
            "            if bucket is not None:\n"
            "                bucket.append(depth)\n"
        ),
    })
    assert run_rule(index, "CON001") == []


def test_con001_malformed_contract(tmp_path):
    index = build_index(tmp_path, {
        "repro/pipeline/stages/custom.py": (
            "class CustomStage(Stage):\n"
            "    CONTRACT = {'reads': (), 'writes': ('warp_core',)}\n"
            "    def tick(self, cycle, activity):\n"
            "        pass\n"
        ),
    })
    violations = run_rule(index, "CON001")
    assert len(violations) == 1
    assert "unknown surface 'warp_core'" in violations[0].message


# ----------------------------------------------------------------------
# SER001: controller-spec grammar
# ----------------------------------------------------------------------

def test_ser001_flags_unknown_kind_and_unpicklable_elements(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "bad_spec = ('bogus', 'C2')\n"
            "lambda_spec = ('policy', lambda s: s)\n"
            "list_spec = ('policy', 'p', [1, 2])\n"
        ),
    })
    violations = run_rule(index, "SER001")
    messages = " / ".join(v.message for v in violations)
    assert len(violations) == 3
    assert "unknown controller-spec kind 'bogus'" in messages
    assert "lambda" in messages
    assert "list" in messages


def test_ser001_accepts_grammar_and_dynamic_specs(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "a_spec = ('throttle', 'C2')\n"
            "b_spec = ('policy', 'custom', 6, ('dispatch', 2), None, 0.5)\n"
            "def make(kind):\n"
            "    c_spec = (kind, 2)\n"  # dynamic head: not checkable
            "    return c_spec\n"
            "plain = ('not', 'a', 'spec')\n"  # not a *_spec binding
        ),
    })
    assert run_rule(index, "SER001") == []


def test_ser001_checks_keyword_arguments(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "def build(cell):\n"
            "    return cell(controller_spec=('oops', 1))\n"
        ),
    })
    violations = run_rule(index, "SER001")
    assert len(violations) == 1
    assert "'oops'" in violations[0].message


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def _some_violations(tmp_path):
    index = build_index(tmp_path, {
        "pkg/mod.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    })
    return run_rule(index, "DET001")


def test_json_report_schema(tmp_path):
    violations = _some_violations(tmp_path)
    payload = render_json(violations)
    assert payload["schema"] == JSON_SCHEMA
    assert payload["count"] == len(violations)
    assert {r["id"] for r in payload["rules"]} == {
        "DET001", "DET002", "DET003", "HOT001", "HOT002", "CON001", "SER001",
    }
    entry = payload["violations"][0]
    assert set(entry) == {"rule", "path", "line", "symbol", "message"}
    json.dumps(payload)  # must be JSON-serialisable as-is


def test_text_report_mentions_counts(tmp_path):
    violations = _some_violations(tmp_path)
    text = render_text(violations)
    assert text.endswith(f"\n{len(violations)} violation(s)")
    assert violations[0].render() in text
    assert render_text([]) == "\n0 violation(s)"
    violation = Violation(
        rule="DET001", path="pkg/mod.py", line=17, symbol="stamp",
        message="m",
    )
    assert violation.render() == "pkg/mod.py:17: DET001 [stamp] m"


# ----------------------------------------------------------------------
# The gate: this repository's own source is clean
# ----------------------------------------------------------------------

def test_repository_source_is_clean():
    violations = run_check(src_root=SRC_ROOT)
    assert violations == [], "\n".join(v.render() for v in violations)
