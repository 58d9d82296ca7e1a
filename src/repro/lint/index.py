"""The per-file scope index: one traversal every rule reads.

:func:`build_index` walks a module's AST exactly once and records what
the rules used to rediscover with their own walkers:

* every **site** — an AST node with its parent node and the lexical
  scope (the module, a ``def`` or a ``class``) it belongs to; lambdas
  and comprehensions belong to the enclosing scope (:class:`Site`);

and, per scope:

* its **bindings** — every ``name = ...`` / ``self.x = ...`` / ``+=`` /
  annotated assignment, in source order, which each consumer filters
  for the question it asks ("ever initialised from a set?");
* its enclosing class and enclosing frame (the nearest ``def`` or the
  module — a class body shares its frame's name table as far as DET002
  is concerned).

File-wide it keeps the sites bucketed by node type (:meth:`ScopeIndex.of`),
the import origins, and the ``# repro-lint: <marker>`` comments by line.
Nothing here judges anything; a rule is a plain function over the index
and never calls ``ast.walk`` on a module or a ``def`` itself.
"""

from __future__ import annotations

import ast
import re
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

#: ``# repro-lint: worker-boundary`` on a ``class``: on the line itself or
#: the one above.
MARKER = re.compile(r"#\s*repro-lint:\s*(worker-boundary)\b")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Site(NamedTuple):
    """One AST node, its parent and the scope it belongs to."""

    node: ast.AST
    parent: ast.AST
    scope: "Scope"


class Binding(NamedTuple):
    """``name`` (a local, or ``self.x``) bound by the statement at ``site``."""

    name: str
    site: Site
    value: Optional[ast.AST]  # the assigned expression; None for ``x: T``


class Scope:
    """One lexical scope: the module, a ``def`` or a ``class``."""

    def __init__(self, node: ast.AST, parent: Optional["Scope"]):
        self.node = node
        self.is_class = isinstance(node, ast.ClassDef)
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        #: a def directly inside a class body
        self.method = is_function and parent is not None and parent.is_class
        #: nearest enclosing class scope (itself for a class), if any
        self.cls: Optional[Scope] = self if self.is_class else parent and parent.cls
        #: nearest enclosing def or the module (itself unless a class)
        self.frame: Scope = parent.frame if self.is_class and parent else self
        self.bindings: List[Binding] = []


class ScopeIndex:
    """Everything the single traversal learned about one file."""

    def __init__(self, tree: ast.Module, comments: Dict[int, str]):
        self.module = Scope(tree, None)
        #: every scope, in source order (the module first)
        self.scopes: List[Scope] = [self.module]
        self.origins: Dict[str, str] = {}
        self._by_type: Dict[type, List[Site]] = {}
        self._markers = {
            line: frozenset(MARKER.findall(text)) for line, text in comments.items()
        }

    @property
    def frames(self) -> List[Scope]:
        """The scopes with a name table of their own: every ``def`` plus
        the module."""
        return [scope for scope in self.scopes if not scope.is_class]

    @property
    def classes(self) -> List[Scope]:
        return [scope for scope in self.scopes if scope.is_class]

    def of(self, *kinds: type) -> List[Site]:
        """Every site in the file whose node is exactly one of ``kinds``."""
        return [site for kind in kinds for site in self._by_type.get(kind, ())]

    def marked(self, node: ast.AST, marker: str) -> bool:
        """``# repro-lint: <marker>`` in a comment on the node's first line
        or the line above (comment tokens only — never string literals)."""
        line = getattr(node, "lineno", 0)
        return any(
            marker in self._markers.get(candidate, ()) for candidate in (line, line - 1)
        )


def build_index(tree: ast.Module, comments: Dict[int, str]) -> ScopeIndex:
    """The one traversal (see the module docstring)."""
    index = ScopeIndex(tree, comments)
    by_type = index._by_type
    #: (tree depth, statement) for every import, in source order
    imports: List[Tuple[int, ast.AST]] = []

    def bind(scope: Scope, target: ast.AST, site: Site, value: Optional[ast.AST]) -> None:
        name = name_or_self(target)
        if name is not None:
            scope.bindings.append(Binding(name, site, value))

    def visit(node: ast.AST, parent: ast.AST, scope: Scope, depth: int) -> None:
        if not node._fields:
            return  # Load/Store, operators, pass/break: nothing a rule reads
        kind = type(node)
        if kind in _SCOPES:
            inner = Scope(node, scope)
            index.scopes.append(inner)
            for child in ast.iter_child_nodes(node):
                visit(child, node, inner, depth + 1)
            return
        site = Site(node, parent, scope)
        by_type.setdefault(kind, []).append(site)
        if kind is ast.Assign:
            for target in node.targets:
                bind(scope, target, site, node.value)
        elif kind is ast.AugAssign or kind is ast.AnnAssign:
            bind(scope, node.target, site, node.value)
        elif kind is ast.Import or kind is ast.ImportFrom:
            imports.append((depth, node))
        for child in ast.iter_child_nodes(node):
            visit(child, node, scope, depth + 1)

    for child in ast.iter_child_nodes(tree):
        visit(child, tree, index.module, 1)
    # Shallowest first (a stable sort keeps source order within a depth).
    index.origins = _import_origins([node for _, node in sorted(imports, key=itemgetter(0))])
    return index


def _import_origins(imports: List[ast.AST]) -> Dict[str, str]:
    """Local name -> dotted origin, from every import in the file.

    ``import numpy as np``          -> ``{"np": "numpy"}``
    ``import os.path``              -> ``{"os": "os"}``
    ``from time import time``       -> ``{"time": "time.time"}``
    ``from x import y as z``        -> ``{"z": "x.y"}``

    Function-level imports count too (the lint is about what the module
    can reach, not where the statement sits); of two imports binding the
    same local name, the more deeply nested one wins.
    """
    origins: Dict[str, str] = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname else local
            continue
        assert isinstance(node, ast.ImportFrom)
        # relative import: origin is package-local
        base = "." * node.level + (node.module or "")
        for alias in node.names:
            local = alias.asname or alias.name
            origins[local] = "%s.%s" % (base, alias.name) if base else alias.name
    return origins


# ---------------------------------------------------------------------------
# expression helpers shared by the rules


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def name_or_self(node: ast.AST) -> Optional[str]:
    """``x`` for a bare name, ``self.x`` for an attribute of ``self``."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return "self." + node.attr
    return None


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


def leaf_label(node: ast.AST) -> Optional[str]:
    """The type name an annotation leaf refers to (``typing.Optional`` is
    judged by its final attribute, ``"pkg.Name"`` by its last segment)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].strip("[]")
    return None

