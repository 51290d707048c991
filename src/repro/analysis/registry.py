"""The rule registry and the Violation record.

A rule is a named check over a :class:`~repro.analysis.walker.ProjectIndex`
returning :class:`Violation` records.  Rules register themselves at import
time via the :func:`rule` decorator; the CLI runs them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.analysis.walker import ProjectIndex


@dataclass(frozen=True)
class Violation:
    """One finding of one rule."""

    rule: str  # rule id, e.g. "DET001"
    path: str  # path relative to the source root
    line: int  # 1-based line of the offending node
    symbol: str  # enclosing function/method ("Class.method") or "<module>"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered rule: id, one-line description, check function."""

    rule_id: str
    description: str
    check: Callable[[ProjectIndex], List[Violation]]


ALL_RULES: List[Rule] = []


def rule(rule_id: str, description: str):
    """Register a check function under a rule id."""

    def register(func: Callable[[ProjectIndex], List[Violation]]):
        ALL_RULES.append(Rule(rule_id, description, func))
        return func

    return register
