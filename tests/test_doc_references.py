"""Every Markdown file, script and study the code and the docs point at
must exist.

Docstrings and comments cite documents for rationale ("see
docs/ARCHITECTURE.md"), and docs, CI steps and the verify notes give
commands that run scripts ("python tests/test_cost_ledger.py
--regenerate") or studies ("repro study run fidelity"); a citation of a
file or study that was never written, or was since removed, sends the
reader nowhere.  Paths are resolved from the
repository root.  ``CHANGES.md`` and ``ROADMAP.md`` are history and are
not scanned.
"""

from __future__ import annotations

import os
import re

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
SCANNED_DIRS = ("src", "examples", "tools", "docs", ".claude/skills")
SCANNED_FILES = ("README.md", ".github/workflows/ci.yml")
MD_PATH = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")
# A repository script named with its directory, e.g. tools/profile_run.py.
PY_PATH = re.compile(
    r"(?<![\w./-])(?:benchmarks|tools|tests|perfbench|examples)/[\w./-]*\w\.py\b"
)
# A ``repro study run`` command and the study names it gives (lower-case
# words; upper-case placeholders such as ``NAME`` are not names).
STUDY_RUN = re.compile(r"\brepro study run((?: [a-z][\w-]*)+)")


def _scanned_files():
    for top in SCANNED_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(filenames):
                if filename.endswith((".py", ".md")):
                    yield os.path.join(dirpath, filename)
    for filename in SCANNED_FILES:
        yield os.path.join(ROOT, filename)


def _references(pattern):
    for path in _scanned_files():
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                for match in pattern.finditer(line):
                    yield os.path.relpath(path, ROOT), number, match.group()


def _missing(pattern):
    return [
        f"{source}:{number}: {target}"
        for source, number, target in _references(pattern)
        if not os.path.isfile(os.path.join(ROOT, target))
    ]


def test_scan_finds_the_known_references():
    targets = {target for _, _, target in _references(MD_PATH)}
    assert "docs/ARCHITECTURE.md" in targets
    scripts = {target for _, _, target in _references(PY_PATH)}
    assert {
        "tools/profile_run.py",
        "tests/test_cost_ledger.py",
        "perfbench/tests/selftest_perfbench.py",
    } <= scripts


def test_every_named_markdown_file_exists():
    missing = _missing(MD_PATH)
    assert not missing, "dangling Markdown references:\n" + "\n".join(missing)


def test_every_named_script_exists():
    missing = _missing(PY_PATH)
    assert not missing, "dangling script references:\n" + "\n".join(missing)


def test_every_named_study_is_registered():
    from repro.studies import all_studies

    known = set(all_studies())
    named = [
        (source, number, name)
        for source, number, command in _references(STUDY_RUN)
        for name in STUDY_RUN.match(command).group(1).split()
    ]
    assert any(name == "fidelity" for _, _, name in named)
    unknown = [
        f"{source}:{number}: {name}"
        for source, number, name in named
        if name not in known
    ]
    assert not unknown, "unregistered studies named:\n" + "\n".join(unknown)
