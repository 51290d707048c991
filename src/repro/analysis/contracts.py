"""Stage/latch contract checking (``CON001``).

The stage kernel's correctness argument rests on which architectural
surfaces each stage may touch: reverse pipeline order only composes into
same-cycle latch semantics if, say, fetch never writes the decode latch.
That argument used to live in comments; here each stage class declares it
as data::

    CONTRACT = {
        "reads": ("decode_latch", "fetch_latch"),
        "writes": ("fetch_latch",),
    }

and this rule recomputes the touched-surface sets from the stage's code
and fails on any undeclared touch (or a missing/malformed declaration).

Seven canonical surfaces exist: ``fetch_latch``, ``decode_latch``,
``rob``, ``iq``, ``lsq``, ``renamer``, ``completions``.  Attribute
references resolve to surfaces by name (``rob_entries`` -> ``rob``,
``pending_tags`` -> ``renamer``, ``buckets`` -> ``completions``, ...),
then propagate through local aliases, including bound-method bindings
(``popleft = pipe.popleft`` records the write at the binding) and
call-result aliases (``bucket = buckets.get(cycle)`` keeps tracking the
completion store).  Mutating method calls, attribute/subscript stores and
augmented assignments count as writes; any other touch is a read.
Stores on ``self`` are stage-local state, not surface writes.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.registry import Violation, rule
from repro.analysis.walker import ProjectIndex

SURFACES = (
    "fetch_latch", "decode_latch", "rob", "iq", "lsq", "renamer",
    "completions",
)

# Attribute name -> surface.  These are the canonical access paths the
# kernel exposes.
ATTR_TO_SURFACE = {
    "fetch_latch": "fetch_latch",
    "decode_latch": "decode_latch",
    "rob": "rob",
    "rob_entries": "rob",
    "iq": "iq",
    "ready_list": "iq",
    "waiters": "iq",
    "lsq": "lsq",
    "renamer": "renamer",
    "pending_tags": "renamer",
    "completions": "completions",
    "buckets": "completions",
}

# Method names that mutate their receiver.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "clear", "add", "discard", "sort", "reverse",
    "update", "setdefault",
    # domain mutators on the kernel structures
    "squash_younger", "restore", "release", "wakeup",
})


class _SurfaceTracker(ast.NodeVisitor):
    """Recompute the surfaces one stage method reads and writes."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}  # local name -> surface
        self.self_aliases: Dict[str, str] = {}  # self attr -> surface
        self.reads: Dict[str, int] = {}  # surface -> first line
        self.writes: Dict[str, int] = {}

    # -- surface resolution -------------------------------------------

    def _surface_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_aliases
            ):
                return self.self_aliases[node.attr]
            if node.attr in ATTR_TO_SURFACE:
                return ATTR_TO_SURFACE[node.attr]
            return self._surface_of(node.value)
        if isinstance(node, ast.Subscript):
            return self._surface_of(node.value)
        if isinstance(node, ast.Call):
            # bucket = buckets.get(cycle): result stays on the surface
            if isinstance(node.func, ast.Attribute):
                return self._surface_of(node.func.value)
        return None

    def _record(self, table: Dict[str, int], surface: str, line: int) -> None:
        if surface not in table:
            table[surface] = line

    # -- alias creation and write classification ----------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value_surface = self._surface_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                # Bound-mutator binding: popleft = pipe.popleft mutates
                # the surface at every later call; charge the write here.
                if (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr in MUTATOR_METHODS
                ):
                    base = self._surface_of(node.value.value)
                    if base is not None:
                        self._record(self.writes, base, node.lineno)
                elif value_surface is not None:
                    self.aliases[target.id] = value_surface
                else:
                    self.aliases.pop(target.id, None)
            elif isinstance(target, ast.Attribute):
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    # Stage-local state; remember what it points at.
                    if value_surface is not None:
                        self.self_aliases[target.attr] = value_surface
                else:
                    surface = self._surface_of(target)
                    if surface is not None:
                        self._record(self.writes, surface, node.lineno)
            elif isinstance(target, ast.Subscript):
                surface = self._surface_of(target.value)
                if surface is not None:
                    self._record(self.writes, surface, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Attribute):
            if not (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in ATTR_TO_SURFACE
            ):
                surface = self._surface_of(target)
                if surface is not None:
                    self._record(self.writes, surface, node.lineno)
        elif isinstance(target, ast.Subscript):
            surface = self._surface_of(target.value)
            if surface is not None:
                self._record(self.writes, surface, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                surface = self._surface_of(target.value)
                if surface is not None:
                    self._record(self.writes, surface, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATOR_METHODS:
            surface = self._surface_of(node.func.value)
            if surface is not None:
                self._record(self.writes, surface, node.lineno)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            surface = self._surface_of(node)
            if surface is not None:
                self._record(self.reads, surface, node.lineno)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        surface = self._surface_of(node.iter)
        if surface is not None:
            self._record(self.reads, surface, node.lineno)
        self.generic_visit(node)


def _parse_contract(
    cls: ast.ClassDef,
) -> Tuple[Optional[Dict[str, Set[str]]], Optional[str], int]:
    """The declared CONTRACT, or (None, problem, line)."""
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "CONTRACT" for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            return None, "CONTRACT must be a dict literal", stmt.lineno
        declared: Dict[str, Set[str]] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if not (isinstance(key, ast.Constant) and key.value in ("reads", "writes")):
                return None, "CONTRACT keys must be 'reads' and 'writes'", stmt.lineno
            if not isinstance(value, (ast.Tuple, ast.List)):
                return (
                    None,
                    f"CONTRACT[{key.value!r}] must be a tuple of surface names",
                    stmt.lineno,
                )
            names: Set[str] = set()
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return (
                        None,
                        f"CONTRACT[{key.value!r}] must hold string literals",
                        stmt.lineno,
                    )
                if element.value not in SURFACES:
                    return (
                        None,
                        f"unknown surface {element.value!r}; known: "
                        + ", ".join(SURFACES),
                        stmt.lineno,
                    )
                names.add(element.value)
            declared[key.value] = names
        declared.setdefault("reads", set())
        declared.setdefault("writes", set())
        return declared, None, stmt.lineno
    return None, None, cls.lineno


def _is_stage_subclass(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if name == "Stage":
            return True
    return False


@rule("CON001", "stages declare and honour their latch read/write surfaces")
def check_contracts(index: ProjectIndex) -> List[Violation]:
    violations: List[Violation] = []
    for info in index.modules:
        if not info.path.startswith("repro/pipeline/stages/"):
            continue
        for cls in info.tree.body:
            if not isinstance(cls, ast.ClassDef) or not _is_stage_subclass(cls):
                continue
            declared, problem, line = _parse_contract(cls)
            if problem is not None:
                violations.append(Violation(
                    rule="CON001", path=info.path, line=line,
                    symbol=cls.name, message=problem,
                ))
                continue
            if declared is None:
                violations.append(Violation(
                    rule="CON001", path=info.path, line=cls.lineno,
                    symbol=cls.name,
                    message=(
                        "stage class declares no CONTRACT; every stage "
                        "must declare the latch surfaces it reads and "
                        "writes"
                    ),
                ))
                continue
            # Recompute per method; a shared self-alias table lets tick
            # methods use aliases established in __init__.
            shared_self: Dict[str, str] = {}
            computed_reads: Dict[str, int] = {}
            computed_writes: Dict[str, int] = {}
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                tracker = _SurfaceTracker()
                tracker.self_aliases = shared_self
                for stmt in method.body:
                    tracker.visit(stmt)
                if method.name == "__init__":
                    # Construction wiring (e.g. caching a latch handle on
                    # self) is not a per-cycle surface touch.
                    continue
                for surface, first in tracker.reads.items():
                    computed_reads.setdefault(surface, first)
                for surface, first in tracker.writes.items():
                    computed_writes.setdefault(surface, first)
            for surface in sorted(set(computed_writes) - declared["writes"]):
                violations.append(Violation(
                    rule="CON001", path=info.path,
                    line=computed_writes[surface], symbol=cls.name,
                    message=(
                        f"stage writes surface '{surface}' but its "
                        "CONTRACT does not declare it in 'writes'"
                    ),
                ))
            covered = declared["reads"] | declared["writes"]
            for surface in sorted(set(computed_reads) - covered):
                violations.append(Violation(
                    rule="CON001", path=info.path,
                    line=computed_reads[surface], symbol=cls.name,
                    message=(
                        f"stage reads surface '{surface}' but its "
                        "CONTRACT declares it in neither 'reads' nor "
                        "'writes'"
                    ),
                ))
    return violations
