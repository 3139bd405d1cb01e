"""Small AST helpers shared by the lint rules.

The rules reason about *canonical dotted names*: ``np.random.default_rng``
resolves to ``numpy.random.default_rng`` through the module's imports,
so aliasing (``import numpy as np``, ``from time import time as now``)
cannot dodge a rule.  Resolution is purely lexical — no runtime imports
of analyzed code ever happen.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

__all__ = [
    "ImportMap",
    "attr_chain",
    "call_name",
    "iter_import_time_nodes",
    "parent_map",
]


def attr_chain(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute/name chain as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Alias → canonical dotted-prefix map for one module.

    Collects every ``import``/``from ... import`` in the module (any
    nesting level: function-local imports alias names too) and resolves
    expression chains against it.  ``from . import x`` and other
    relative imports resolve with a ``.``-prefixed module part, which
    still ends with the interesting suffix (``.graphs.graph``), so
    suffix matching keeps working.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    full = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = full
            elif isinstance(node, ast.ImportFrom):
                module = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{module}.{alias.name}" if module else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an attribute/name chain, or None."""
        chain = attr_chain(node)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        full = self.aliases.get(head)
        if full is None:
            return chain
        return f"{full}.{rest}" if rest else full


def call_name(imports: ImportMap, node: ast.Call) -> Optional[str]:
    """Canonical dotted name of a call target, or None for dynamic calls."""
    return imports.resolve(node.func)


def parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` for every node in *tree*."""
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def iter_import_time_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node executed at import time (module + class bodies).

    Descends into module-level ``if``/``try``/``with`` blocks and class
    bodies, but never into function bodies — those run at call time.
    """
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
