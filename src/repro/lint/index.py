"""The per-file scope index: one traversal every rule and extractor reads.

:func:`build_index` walks a module's AST exactly once and records, per
lexical scope (the module, every ``def``, every ``class``), what the
rules used to rediscover with their own walkers:

* the scope's **own sites** — each AST node that belongs to the scope
  itself (lambdas and comprehensions included, nested ``def``/``class``
  bodies excluded) together with the context it was met in: parent node,
  tree depth, whether it sits inside a syntactic loop or a ``raise``, and
  the loop variables in force (:class:`Site`);
* its **bindings** — every ``name = ...`` / ``self.x = ...`` / ``+=`` /
  annotated assignment / loop target, in source order, which each
  consumer filters for the question it asks ("ever initialised from a
  list?", "holds a numpy array?");
* its qualified name, enclosing class and enclosing frame
  (the nearest ``def`` or the module — a class body shares its frame's
  name table as far as DET002 is concerned).

File-wide it keeps the sites bucketed by node type (:meth:`ScopeIndex.of`),
the import origins, and the ``# repro-lint: <marker>`` comments by line.
Nothing here judges anything; a rule is a plain function over the index
and never calls ``ast.walk`` on a module or a ``def`` itself.

Sites are stored in source (depth-first) order.  The facts format was
defined over breadth-first walks, so the fact extractors read a scope
through :func:`level_order`, which restores exactly that order.
"""

from __future__ import annotations

import ast
import re
from operator import attrgetter
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional

#: ``# repro-lint: hot-loop`` on a ``def``, ``worker-boundary`` on a
#: ``class``: on the line itself or the one above.
MARKER = re.compile(r"#\s*repro-lint:\s*(hot-loop|worker-boundary)\b")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NO_VARS: FrozenSet[str] = frozenset()


class Site(NamedTuple):
    """One AST node and the context the traversal met it in."""

    node: ast.AST
    parent: ast.AST
    scope: "Scope"
    depth: int
    loop: bool  # inside a for/while body (or a while test) of this scope
    raising: bool  # inside a ``raise`` statement
    loop_vars: FrozenSet[str]  # ``for`` targets in force


class Binding(NamedTuple):
    """``name`` (a local, or ``self.x``) bound by the statement at ``site``."""

    name: str
    site: Site
    value: Optional[ast.AST]  # the assigned expression; None for loop targets


class Scope:
    """One lexical scope: the module, a ``def`` or a ``class``."""

    def __init__(self, node: ast.AST, parent: Optional["Scope"]):
        self.node = node
        self.parent = parent
        self.is_class = isinstance(node, ast.ClassDef)
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        #: a def directly inside a class body
        self.method = is_function and parent is not None and parent.is_class
        if parent is None:
            self.qname = "<module>"
        else:
            prefix = "" if parent.parent is None else parent.qname + "."
            self.qname = prefix + node.name
        #: nearest enclosing class scope (itself for a class), if any
        self.cls: Optional[Scope] = self if self.is_class else parent and parent.cls
        #: nearest enclosing def or the module (itself unless a class)
        self.frame: Scope = parent.frame if self.is_class and parent else self
        self.own: List[Site] = []
        self.bindings: List[Binding] = []
        self.children: List[Scope] = []

    def walk(self) -> Iterator["Scope"]:
        """This scope and every scope nested in it, in source order."""
        yield self
        for child in self.children:
            yield from child.walk()


class ScopeIndex:
    """Everything the single traversal learned about one file."""

    def __init__(self, tree: ast.Module, comments: Dict[int, str]):
        self.module = Scope(tree, None)
        #: every scope, in source order (the module first)
        self.scopes: List[Scope] = [self.module]
        #: def/class node -> its scope
        self.scope_of: Dict[ast.AST, Scope] = {tree: self.module}
        self.origins: Dict[str, str] = {}
        self._by_type: Dict[type, List[Site]] = {}
        self._markers = {
            line: frozenset(MARKER.findall(text)) for line, text in comments.items()
        }

    @property
    def frames(self) -> List[Scope]:
        """The scopes facts are kept for: every ``def`` plus the module."""
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


def level_order(sites: List[Site]) -> List[Site]:
    """``sites`` (source order) re-sorted breadth-first, shallowest first."""
    return sorted(sites, key=attrgetter("depth"))


def build_index(tree: ast.Module, comments: Dict[int, str]) -> ScopeIndex:
    """The one traversal (see the module docstring)."""
    index = ScopeIndex(tree, comments)
    by_type = index._by_type
    imports: List[Site] = []

    def bind(scope: Scope, target: ast.AST, site: Site, value: Optional[ast.AST]) -> None:
        name = name_or_self(target)
        if name is not None:
            scope.bindings.append(Binding(name, site, value))

    def visit(
        node: ast.AST,
        parent: ast.AST,
        scope: Scope,
        depth: int,
        loop: bool,
        raising: bool,
        loop_vars: FrozenSet[str],
    ) -> None:
        if not node._fields:
            return  # Load/Store, operators, pass/break: nothing a rule reads
        kind = type(node)
        if kind in _SCOPES:
            inner = Scope(node, scope)
            scope.children.append(inner)
            index.scopes.append(inner)
            index.scope_of[node] = inner
            for child in ast.iter_child_nodes(node):
                visit(child, node, inner, depth + 1, False, False, _NO_VARS)
            return
        site = Site(node, parent, scope, depth, loop, raising, loop_vars)
        scope.own.append(site)
        by_type.setdefault(kind, []).append(site)
        if kind is ast.Assign:
            for target in node.targets:
                bind(scope, target, site, node.value)
        elif kind is ast.AugAssign or kind is ast.AnnAssign:
            bind(scope, node.target, site, node.value)
        elif kind is ast.Import or kind is ast.ImportFrom:
            imports.append(site)
        elif kind is ast.While:
            loop = True
        elif kind is ast.Raise:
            raising = True
        elif kind is ast.For or kind is ast.AsyncFor or kind is ast.comprehension:
            target = node.target
            if isinstance(target, ast.Name):
                scope.bindings.append(Binding(target.id, site, None))
            if kind is not ast.comprehension:
                # The iterable is evaluated once per loop entry; only the
                # target unpack and the body run per turn.
                inner_vars = loop_vars | target_names(target)
                for child in ast.iter_child_nodes(node):
                    if child is node.iter:
                        visit(child, node, scope, depth + 1, loop, raising, loop_vars)
                    else:
                        visit(child, node, scope, depth + 1, True, raising, inner_vars)
                return
        for child in ast.iter_child_nodes(node):
            visit(child, node, scope, depth + 1, loop, raising, loop_vars)

    for child in ast.iter_child_nodes(tree):
        visit(child, tree, index.module, 1, False, False, _NO_VARS)
    index.origins = _import_origins(level_order(imports))
    return index


def _import_origins(imports: List[Site]) -> Dict[str, str]:
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
    for site in imports:
        node = site.node
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


def target_names(node: ast.AST) -> FrozenSet[str]:
    """The plain names an assignment / loop target binds."""
    if isinstance(node, ast.Name):
        return frozenset({node.id})
    if isinstance(node, (ast.Tuple, ast.List)):
        return frozenset().union(*map(target_names, node.elts))
    return _NO_VARS


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

