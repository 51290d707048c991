"""Every ``from repro… import name`` in examples/ resolves.

The examples do not run in tier-1 (they take minutes), so an API removed
from ``src/`` would leave them broken unnoticed.  This check reads their
imports statically and resolves each name, without running anything.
"""

from __future__ import annotations

import ast
import importlib
import os

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
SCANNED_DIRS = ("examples",)


def _scripts():
    for top in SCANNED_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, filename), ROOT)


def _repro_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def _resolves(module_name, name):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if hasattr(module, name):
        return True
    try:  # a submodule imported by name: from repro.studies import library
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


SCRIPTS = sorted(_scripts())


def test_every_scanned_directory_has_scripts_with_repro_imports():
    for top in SCANNED_DIRS:
        assert any(
            path.startswith(top + os.sep) and any(_repro_imports(path))
            for path in SCRIPTS
        ), top


@pytest.mark.parametrize("path", SCRIPTS)
def test_repro_imports_resolve(path):
    unresolved = [
        f"{path}:{line}: from {module} import {name}"
        for line, module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert unresolved == []
