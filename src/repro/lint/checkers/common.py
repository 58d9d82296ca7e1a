"""Shared AST utilities for the checkers.

The central abstraction is *import-origin resolution*: mapping a local
name back to the dotted path it was imported from, so ``from time import
time as t; t()`` and ``import time; time.time()`` both resolve to
``time.time`` without executing anything.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional


def import_origins(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, from every import in the file.

    ``import numpy as np``          -> ``{"np": "numpy"}``
    ``import os.path``              -> ``{"os": "os"}``
    ``from time import time``       -> ``{"time": "time.time"}``
    ``from x import y as z``        -> ``{"z": "x.y"}``

    Function-level imports count too (the lint is about what the module
    can reach, not where the statement sits).
    """
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                origins[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: origin is package-local
                base = "." * node.level + (node.module or "")
            else:
                base = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                origins[local] = "%s.%s" % (base, alias.name) if base else alias.name
    return origins


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_target(node: ast.AST, origins: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted path of a call target, following imports.

    With ``from datetime import datetime as dt``, the expression
    ``dt.now`` resolves to ``datetime.datetime.now``.
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = origins.get(head)
    if origin is None:
        return name
    return origin + ("." + rest if rest else "")


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """child node -> parent node, for upward pattern matching."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def int_constant(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def str_constant(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
