"""Every Markdown file the code and the README point at must exist.

Docstrings and comments cite documents for rationale ("see
docs/ARCHITECTURE.md"); a citation of a file that was never written, or
was since removed, sends the reader nowhere.  Paths are resolved from the
repository root.
"""

from __future__ import annotations

import os
import re

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
SCANNED_DIRS = ("src", "benchmarks", "examples")
SCANNED_FILES = ("README.md",)
MD_PATH = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")


def _scanned_files():
    for top in SCANNED_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(filenames):
                if filename.endswith((".py", ".md")):
                    yield os.path.join(dirpath, filename)
    for filename in SCANNED_FILES:
        yield os.path.join(ROOT, filename)


def _md_references():
    for path in _scanned_files():
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                for match in MD_PATH.finditer(line):
                    yield os.path.relpath(path, ROOT), number, match.group()


def test_scan_finds_the_known_references():
    targets = {target for _, _, target in _md_references()}
    assert "docs/ARCHITECTURE.md" in targets


def test_every_named_markdown_file_exists():
    missing = [
        f"{source}:{number}: {target}"
        for source, number, target in _md_references()
        if not os.path.isfile(os.path.join(ROOT, target))
    ]
    assert not missing, "dangling Markdown references:\n" + "\n".join(missing)
