"""Simulator-aware static analysis (the ``repro check`` command).

A small AST-based framework purpose-built for this codebase's two
unwritten contracts — bit-exact determinism and hot-path discipline —
plus the stage/latch architecture and the process-pool serialization
grammar.  Four rule families ship:

* determinism (``DET*``) — no wall-clock, no process-entropy, no
  set-order iteration in any module reachable from the simulation core;
* hot-path discipline (``HOT*``) — ``__slots__`` on the classes the
  per-cycle loops instantiate or traverse, and no closures/try/``sum()``
  in stage tick code;
* stage contracts (``CON*``) — every pipeline stage declares the latch
  surfaces it reads and writes (``CONTRACT``), checked against the
  surfaces its code actually touches;
* serialization (``SER*``) — literal controller specs must stay inside
  the picklable spec-tuple grammar the cache fingerprints understand.

Entry points: :func:`run_check` (used by the CLI), the
:class:`~repro.analysis.walker.ProjectIndex` (build one over any source
tree, which is how the self-tests feed fixture snippets through real
rules).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.registry import ALL_RULES, Violation
from repro.analysis.walker import ProjectIndex

# Import for side effects: each rule module registers its rules.
from repro.analysis import contracts  # noqa: F401
from repro.analysis import determinism  # noqa: F401
from repro.analysis import hotpath  # noqa: F401
from repro.analysis import serialization  # noqa: F401

__all__ = ["ProjectIndex", "Violation", "run_check"]


def run_check(
    src_root: Optional[str] = None,
    rules: Optional[List[str]] = None,
) -> List[Violation]:
    """Run every registered rule (or the named subset) over a source tree.

    ``src_root`` is the directory containing the ``repro`` package;
    defaults to the tree this module was imported from.  Returns the
    violations sorted by path, line and rule.
    """
    index = ProjectIndex.build(src_root)
    violations: List[Violation] = []
    for rule in ALL_RULES:
        if rules is not None and rule.rule_id not in rules:
            continue
        violations.extend(rule.check(index))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations
