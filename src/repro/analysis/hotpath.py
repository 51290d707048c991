"""Hot-path discipline rules.

The stage kernel touches every in-flight instruction every cycle;
allocation and attribute-dict overhead there is the difference between
the ~1.9x kernel speedup and giving it back.  Two rules:

* ``HOT001`` — classes in the per-cycle packages (``pipeline``,
  ``frontend``, ``confidence``, ``power``) must declare ``__slots__``.
  Dataclasses, enums, exceptions and Protocols are exempt (different
  machinery), as are the run-scoped classes on the explicit allowlist
  below — stages keep ``__dict__`` because replacing ``tick`` on a stage
  *instance* is a documented extension point (see
  ``tests/test_processor.py``), and processors accumulate run-scoped
  SMT state and rebind their stepper (``attach_tracer``) dynamically.
* ``HOT002`` — stage tick code (methods of ``Stage`` subclasses, the
  cycle scheduler, and the kernel's column structures in
  ``repro/pipeline/arrays.py``) must not build closures (lambda /
  nested def), open ``try`` blocks, or call ``sum()``: each is an
  allocation or a setup/teardown cost paid per cycle per thread.
  Explicit loops with an accumulator are the house idiom.  Methods that
  are *not* tick code despite living in a scanned class (cold probe or
  debug APIs) may use the flagged constructs through a scoped
  ``HOT002_ALLOWLIST`` entry — one ``(path, Class.method)`` pair with a
  stated reason, never a file- or class-wide suppression.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.registry import Violation, rule
from repro.analysis.walker import ProjectIndex, resolve_call_target

HOT_PACKAGE_PREFIXES = (
    "repro/pipeline/",
    "repro/frontend/",
    "repro/confidence/",
    "repro/power/",
)

# Run-scoped classes (built once per simulation, not per cycle) that
# intentionally keep a ``__dict__``.
SLOTS_ALLOWLIST = frozenset({
    # Subclasses (SmtProcessor) and callers attach run-scoped state
    # (shared_caps; attach_tracer rebinds _step) dynamically.
    ("repro/pipeline/processor.py", "Processor"),
    # Rebinding ``tick`` on a stage instance is a documented extension
    # point exercised by tests/test_processor.py.
    ("repro/pipeline/stages/base.py", "Stage"),
    ("repro/pipeline/stages/commit.py", "CommitRecoverStage"),
    ("repro/pipeline/stages/decode_rename.py", "DecodeRenameStage"),
    ("repro/pipeline/stages/execute_writeback.py", "ExecuteWritebackStage"),
    ("repro/pipeline/stages/fetch.py", "FetchStage"),
    ("repro/pipeline/stages/select_issue.py", "SelectIssueStage"),
})

# Scoped HOT002 exemptions: (path, "Class.method") pairs for methods
# that live in a scanned class but are not tick code.  Every entry
# states its reason; a file- or class-wide suppression is never
# acceptable here — the point of the rule is that tick code stays
# loop-and-accumulator shaped.
HOT002_ALLOWLIST: frozenset = frozenset()

_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "Flag", "IntFlag", "NamedTuple", "Protocol",
    "Exception", "BaseException", "TypedDict",
})


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


def _is_exempt_class(node: ast.ClassDef) -> bool:
    if _is_dataclass_decorated(node):
        return True
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if name is None:
            continue
        if name in _EXEMPT_BASES or name.endswith("Error"):
            return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
    return False


@rule("HOT001", "__slots__ on classes in per-cycle packages")
def check_slots(index: ProjectIndex) -> List[Violation]:
    violations: List[Violation] = []
    for info in index.modules:
        if not info.path.startswith(HOT_PACKAGE_PREFIXES):
            continue
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt_class(node):
                continue
            if (info.path, node.name) in SLOTS_ALLOWLIST:
                continue
            if not _declares_slots(node):
                violations.append(Violation(
                    rule="HOT001", path=info.path, line=node.lineno,
                    symbol=node.name,
                    message=(
                        f"class {node.name} lives in a per-cycle package "
                        "but declares no __slots__; per-instance dicts "
                        "cost memory and attribute-lookup time in the "
                        "hot loop"
                    ),
                ))
    return violations


def _is_stage_class(node: ast.ClassDef) -> bool:
    if node.name == "CycleScheduler":
        return True
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if name == "Stage":
            return True
    return False


@rule("HOT002", "no closures, try blocks or sum() in stage tick code")
def check_stage_methods(index: ProjectIndex) -> List[Violation]:
    violations: List[Violation] = []
    for info in index.modules:
        # The kernel's column structures are tick code too: every
        # class in repro/pipeline/arrays.py is driven from stage loops.
        arrays_module = info.path == "repro/pipeline/arrays.py"
        if not arrays_module and not info.path.startswith(
            "repro/pipeline/stages/"
        ):
            continue
        for cls in info.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            if not arrays_module and not _is_stage_class(cls):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                symbol = f"{cls.name}.{method.name}"
                if (info.path, symbol) in HOT002_ALLOWLIST:
                    continue
                for node in ast.walk(method):
                    if node is method:
                        continue
                    construct = None
                    if isinstance(node, ast.Lambda):
                        construct = "a lambda (closure allocation)"
                    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        construct = "a nested function (closure allocation)"
                    elif isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                        construct = "a try block (per-entry setup cost)"
                    elif (
                        isinstance(node, ast.Call)
                        and resolve_call_target(info, node) == "sum"
                    ):
                        construct = (
                            "sum() (generator allocation; use an explicit "
                            "accumulator loop)"
                        )
                    if construct is not None:
                        violations.append(Violation(
                            rule="HOT002", path=info.path, line=node.lineno,
                            symbol=symbol,
                            message=f"stage method uses {construct}",
                        ))
    return violations
