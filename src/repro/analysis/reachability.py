"""Every function has a caller (``DEAD001``).

A function or method in the package that nothing calls is dead weight
the next reader still has to understand, keep in step with the code it
shadows and keep passing its tests.  ``DEAD001`` flags every top-level
function and class method under the source root that has no use in the
package itself or in the caller-only roots beside it
(:data:`~repro.analysis.walker.CALLER_ROOTS`: ``tools/``, ``examples/``
and ``perfbench/``).  Without those roots (an installed package) the
rule cannot tell public API from dead code and reports nothing.

A use of a function is

* a load of its name that resolves to it through the import map,
  re-exports included (``publish as telemetry_publish`` counts), or a
  dotted load through an imported module (``rng.derive_seed``);
* for a method, a ``.name`` attribute load anywhere (calls, bound
  references, properties);
* a string constant equal to its name outside ``__all__`` (``getattr``
  dispatch).

What is not a use: a package ``__init__`` re-export, an ``__all__``
entry, an import whose name is never loaded, and any caller under
``tests/`` (a test of an otherwise uncalled function keeps it alive
only for the test's sake).

The allowlist is three entries, each a caller the scan cannot see:
dunders, ``visit_*`` methods of ``ast.NodeVisitor`` subclasses, and
functions registered by a decorator call to a package function such as
``@rule(...)``.  Entry points need no entry: ``cli.main`` is called by
``__main__`` and every ``python -m`` main by its ``__main__`` guard.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis.registry import Violation, rule
from repro.analysis.walker import (
    ModuleInfo,
    ProjectIndex,
    dotted_name,
    qualified_symbols,
    resolve_call_target,
    resolve_name,
)

def _canonical(index: ProjectIndex, dotted: str) -> str:
    """Follow package re-exports to the module that defines ``dotted``."""
    seen: Set[str] = set()
    while dotted not in seen:
        seen.add(dotted)
        module, _, attr = dotted.rpartition(".")
        info = index.by_name.get(module)
        if info is None or attr not in info.imports:
            break
        dotted = info.imports[attr]
    return dotted


def _all_strings(tree: ast.Module) -> Set[int]:
    """ids of the string constants inside ``__all__`` assignments."""
    ids: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return ids


def _uses(
    index: ProjectIndex, modules: Iterable[ModuleInfo]
) -> Tuple[Set[str], Set[str], Set[str]]:
    """(qualified names loaded, attribute names loaded, string constants)."""
    qualified: Set[str] = set()
    attributes: Set[str] = set()
    strings: Set[str] = set()
    for info in modules:
        local = {
            node.name for node in info.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        excluded = _all_strings(info.tree)
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if not isinstance(node.ctx, ast.Load):
                    continue
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                if dotted.partition(".")[0] in local:
                    qualified.add(f"{info.name}.{dotted}")
                else:
                    qualified.add(_canonical(index, resolve_name(info, dotted)))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in excluded
            ):
                strings.add(node.value)
    return qualified, attributes, strings


def _is_registered(info: ModuleInfo, func: ast.AST, index: ProjectIndex) -> bool:
    """Decorated by a call to a function defined in the package."""
    for deco in func.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        target = resolve_call_target(info, deco)
        if target is None:
            continue
        if _canonical(index, target).rpartition(".")[0] in index.by_name:
            return True
    return False


def _is_visitor(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None and name.rpartition(".")[2] == "NodeVisitor":
            return True
    return False


@rule("DEAD001", "every function and method has a caller outside tests")
def check_callers(index: ProjectIndex) -> List[Violation]:
    if not index.callers:
        return []
    qualified, attributes, strings = _uses(
        index, index.modules + index.callers
    )
    visitors = {
        (info.name, node.name)
        for info in index.modules for node in info.tree.body
        if isinstance(node, ast.ClassDef) and _is_visitor(node)
    }
    violations: List[Violation] = []
    for info in index.modules:
        for symbol, node in qualified_symbols(info.tree):
            if node is info.tree:
                continue
            cls, _, name = symbol.rpartition(".")
            # Dunders: the interpreter calls them.
            if name.startswith("__") and name.endswith("__"):
                continue
            # ``NodeVisitor.visit`` dispatches to ``visit_<Node>`` by name.
            if cls and name.startswith("visit_") and (info.name, cls) in visitors:
                continue
            # A registrar (``@rule(...)``) keeps the function and calls it.
            if _is_registered(info, node, index):
                continue
            if name in strings or (
                name in attributes if cls
                else f"{info.name}.{name}" in qualified
            ):
                continue
            kind = "method" if cls else "function"
            violations.append(Violation(
                rule="DEAD001", path=info.path, line=node.lineno,
                symbol=symbol,
                message=(
                    f"{kind} {symbol} has no caller in the package, tools/, "
                    "examples/ or perfbench/ (tests, __all__ and re-exports "
                    "do not count); delete it"
                ),
            ))
    return violations
