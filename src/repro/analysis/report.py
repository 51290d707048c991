"""Rendering for ``repro check`` results (text and JSON)."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.registry import ALL_RULES, Violation

JSON_SCHEMA = "repro-check/1"


def render_text(violations: Sequence[Violation]) -> str:
    """Human-readable report, one finding per line, grep-friendly."""
    lines: List[str] = [violation.render() for violation in violations]
    lines.append("")
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation]) -> Dict:
    """Machine-readable report (stable schema for CI tooling)."""
    return {
        "schema": JSON_SCHEMA,
        "rules": [
            {"id": rule.rule_id, "description": rule.description}
            for rule in ALL_RULES
        ],
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "symbol": violation.symbol,
                "message": violation.message,
            }
            for violation in violations
        ],
        "count": len(violations),
    }
