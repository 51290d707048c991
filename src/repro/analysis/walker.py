"""Source discovery, parsing and the module import graph.

The :class:`ProjectIndex` is the input every rule works from: one parsed
AST per module, paths relative to the source root, a per-module import
map (local name -> dotted origin, used to resolve call targets like
``time.time`` through aliases), and module-to-module import edges from
which determinism rules compute the set of modules reachable from the
simulation core.

Built over this repository by default, but any directory holding a
package works — the checker's self-tests synthesize miniature packages
and feed them through the very same rules.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.pipeline.processor"
    path: str  # path relative to the source root, posix separators
    tree: ast.Module
    # Local name -> dotted origin for module-level imports:
    #   import time            -> {"time": "time"}
    #   import numpy as np     -> {"np": "numpy"}
    #   from time import time  -> {"time": "time.time"}
    #   from datetime import datetime -> {"datetime": "datetime.datetime"}
    imports: Dict[str, str] = field(default_factory=dict)
    # Dotted names of modules this module imports (package-internal edges
    # only resolve against modules present in the index).
    imported_modules: Set[str] = field(default_factory=set)


def _module_name(rel_path: str) -> str:
    parts = rel_path[:-3].split("/")  # strip ".py"
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_imports(info: ModuleInfo) -> None:
    package = info.name.rsplit(".", 1)[0] if "." in info.name else ""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
                info.imported_modules.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                base = package
            elif node.level:
                parts = package.split(".")
                base_parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(base_parts + [node.module])
            else:
                base = node.module
            info.imported_modules.add(base)
            for alias in node.names:
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}"
                # ``from pkg import submodule`` also edges to the submodule.
                info.imported_modules.add(f"{base}.{alias.name}")


class ProjectIndex:
    """Every parsed module of a source tree plus its import graph."""

    def __init__(self, src_root: str, modules: List[ModuleInfo]) -> None:
        self.src_root = src_root
        self.modules = modules
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in modules}

    @classmethod
    def build(cls, src_root: Optional[str] = None) -> "ProjectIndex":
        if src_root is None:
            # .../src/repro/analysis/walker.py -> .../src
            src_root = os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            )
        modules: List[ModuleInfo] = []
        for dirpath, dirnames, filenames in os.walk(src_root):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, src_root).replace(os.sep, "/")
                with open(full, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=rel)
                info = ModuleInfo(name=_module_name(rel), path=rel, tree=tree)
                _collect_imports(info)
                modules.append(info)
        return cls(src_root, modules)

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable_from(self, roots: Tuple[str, ...]) -> Set[str]:
        """Module names transitively imported from ``roots`` (inclusive).

        Only edges resolving to modules in this index are followed; an
        imported *package* pulls in its ``__init__`` module's own edges
        but not every submodule (the kernel imports what it uses).
        """
        seen: Set[str] = set()
        stack = [name for name in roots if name in self.by_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            info = self.by_name[name]
            for target in info.imported_modules:
                if target in self.by_name and target not in seen:
                    stack.append(target)
                else:
                    # ``from pkg.mod import name``: the edge may point at
                    # an attribute of a module rather than a module.
                    parent = target.rsplit(".", 1)[0] if "." in target else ""
                    if parent in self.by_name and parent not in seen:
                        stack.append(parent)
        return seen


def qualified_symbols(tree: ast.Module):
    """Yield ``(symbol, node)`` for every function/method, plus the module.

    ``symbol`` is the dotted in-module name (``Class.method``, ``func``,
    or ``<module>`` for top-level statements).
    """
    yield "<module>", tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def enclosing_symbol(tree: ast.Module, target: ast.AST) -> str:
    """The qualified symbol whose body contains ``target``."""
    best = "<module>"
    for symbol, node in qualified_symbols(tree):
        if node is tree:
            continue
        if (
            node.lineno <= target.lineno
            and target.lineno <= max(node.lineno, node.end_lineno or node.lineno)
        ):
            best = symbol
    return best


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_target(info: ModuleInfo, node: ast.Call) -> Optional[str]:
    """The fully-qualified dotted target of a call, via the import map.

    ``time()`` after ``from time import time`` resolves to ``time.time``;
    ``dt.now()`` after ``from datetime import datetime as dt`` resolves
    to ``datetime.datetime.now``.  Returns None for calls on computed
    expressions.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = info.imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin
