"""DET002: iteration over unordered sets in order-sensitive packages.

``set``/``frozenset`` iteration order depends on insertion history and
(for ``str`` elements) the per-process hash seed.  In the packages whose
output feeds results or emission order — ``prober``, ``netsim``,
``analysis`` — an unsorted set walk can change record order, dict key
order, or tie-breaks between runs and between workers, which is exactly
the class of bug that breaks the parallel runner's deterministic merge.

The rule flags ``for``-loops, comprehension generators and ordering-
sensitive calls (``list``/``tuple``/``enumerate``/``iter``/``.join``)
whose iterable is *statically known* to be a set:

* set literals / set comprehensions / ``set(...)`` / ``frozenset(...)``
* set-operator results (``a | b``, ``a & b``, ``a - b``, ``a ^ b``)
  and set-returning methods (``.union``, ``.difference``, ...)
* local names every assignment of which is such an expression
* ``self.X`` attributes annotated ``Set[...]`` anywhere in the class,
  and ``@property`` / method returns annotated ``Set[...]``

Not flagged (order cannot escape):

* the iterable is wrapped in ``sorted(...)``
* a comprehension consumed directly by an order-insensitive reducer
  (``sorted``, ``sum``, ``len``, ``min``, ``max``, ``any``, ``all``,
  ``set``, ``frozenset``)
* a set comprehension over a set (unordered in, unordered out)
* the line carries a ``# lint: ordered`` annotation — the author's
  reviewed assertion that order is deterministic or cannot escape
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..core import Program, SourceFile, Violation
from ..index import Scope, ScopeIndex

RULE = "DET002"
DESCRIPTION = (
    "flags iteration over sets in prober/netsim/analysis unless "
    "sorted() or annotated '# lint: ordered'"
)

#: Packages (dotted-path segments) where emission/result order matters.
ORDER_SENSITIVE_SEGMENTS = frozenset({"prober", "netsim", "analysis"})

_SET_ANNOTATIONS = frozenset(
    {"Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet"}
)
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Consumers whose result does not depend on iteration order.
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset"}
)


def in_scope(module: str) -> bool:
    return bool(set(module.split(".")) & ORDER_SENSITIVE_SEGMENTS)


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_is_set(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return False
    return False


class _ClassInfo:
    """Set-typed members of one class: annotated attributes plus
    properties/methods with a ``Set[...]`` return annotation."""

    def __init__(self) -> None:
        self.set_attributes: Set[str] = set()
        self.set_returning: Set[str] = set()


def _class_infos(index: ScopeIndex) -> Dict[Scope, _ClassInfo]:
    infos = {scope: _ClassInfo() for scope in index.classes}
    for scope in index.scopes:
        if scope.cls is None:
            continue
        info = infos[scope.cls]
        for name, site, _ in scope.bindings:
            if isinstance(site.node, ast.AnnAssign) and _annotation_is_set(
                site.node.annotation
            ):
                if name.startswith("self."):
                    info.set_attributes.add(name[5:])
                elif scope.is_class:
                    info.set_attributes.add(name)
        if scope.method and _annotation_is_set(scope.node.returns):
            members = info.set_attributes if _is_property(scope.node) else info.set_returning
            members.add(scope.node.name)
    return infos


def _is_property(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
    return False


class _Scope:
    """Name -> set-ness within one function (or the module body).

    A name counts as a set only when *every* assignment to it in the
    scope is a set expression; one non-set assignment poisons it."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.poisoned: Set[str] = set()

    def is_set(self, name: str) -> bool:
        return name in self.set_names and name not in self.poisoned


def check(program: Program) -> List[Violation]:
    violations: List[Violation] = []
    for file in program.files:
        if in_scope(file.module):
            violations.extend(_check_file(file))
    return violations


def _check_file(file: SourceFile) -> Iterator[Violation]:
    index = file.index
    classes = _class_infos(index)
    frames = _set_names(index, classes)

    def flag(node: ast.AST, what: Optional[str]) -> Iterator[Violation]:
        if what is None or file.suppressions.is_ordered(getattr(node, "lineno", 1)):
            return
        yield Violation.at(
            RULE,
            file.path,
            node,
            "iteration over unordered %s; wrap in sorted(...) or annotate "
            "'# lint: ordered' if order provably cannot escape" % what,
        )

    for site in index.of(ast.For, ast.AsyncFor, ast.ListComp, ast.DictComp, ast.GeneratorExp, ast.Call):
        node = site.node
        scope, info = frames[site.scope.frame], classes.get(site.scope.cls)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node, _set_description(node.iter, scope, info))
        elif isinstance(node, ast.Call):
            callee = node.func
            ordering_call = (
                isinstance(callee, ast.Name)
                and callee.id in ("list", "tuple", "enumerate", "iter")
            ) or (isinstance(callee, ast.Attribute) and callee.attr == "join")
            if ordering_call and node.args:
                yield from flag(node, _set_description(node.args[0], scope, info))
        elif not _consumer_is_order_insensitive(node, site.parent):
            # (a set comprehension over a set is unordered in, unordered
            # out, and is not in the scan at all)
            for generator in node.generators:
                yield from flag(
                    generator.iter, _set_description(generator.iter, scope, info)
                )


# -- set-expression inference -------------------------------------------


def _set_description(
    node: ast.AST, scope: _Scope, info: Optional[_ClassInfo]
) -> Optional[str]:
    """Human description when ``node`` is statically a set, else None."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id in ("set", "frozenset"):
            return "%s(...) result" % callee.id
        if isinstance(callee, ast.Attribute) and callee.attr in _SET_METHODS:
            if _set_description(callee.value, scope, info) is not None:
                return ".%s(...) result" % callee.attr
        if (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
            and info is not None
            and callee.attr in info.set_returning
        ):
            return "set returned by self.%s()" % callee.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        if (
            _set_description(node.left, scope, info) is not None
            or _set_description(node.right, scope, info) is not None
        ):
            return "set-operator result"
    if isinstance(node, ast.Name) and scope.is_set(node.id):
        return "set %r" % node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and info is not None
        and node.attr in info.set_attributes
    ):
        return "set attribute self.%s" % node.attr
    return None


def _consumer_is_order_insensitive(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in ORDER_INSENSITIVE_CALLS
        and node in parent.args
    )


def _set_names(
    index: ScopeIndex, classes: Dict[Scope, _ClassInfo]
) -> Dict[Scope, _Scope]:
    """frame -> which of its names are sets.  A class body's assignments
    count toward its enclosing frame."""
    frames = {scope: _Scope() for scope in index.frames}
    assignments: List[tuple] = []
    for scope in index.scopes:
        for name, site, value in scope.bindings:
            node = site.node
            if "." in name or not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            if isinstance(node, ast.AugAssign) and isinstance(node.op, _SET_OPS):
                continue  # |=, &= etc. preserve set-ness
            assignments.append(
                (
                    frames[scope.frame],
                    name,
                    value,
                    getattr(node, "annotation", None),
                    classes.get(scope.cls),
                )
            )
    # Fixpoint: set-ness can flow through chains (x = set(); y = x)
    # whatever order the assignments are listed in.
    changed = True
    while changed:
        changed = False
        for scope, name, value, annotation, info in assignments:
            if scope.is_set(name) or name in scope.poisoned:
                continue
            if _annotation_is_set(annotation) or (
                value is not None
                and _set_description(value, scope, info) is not None
            ):
                scope.set_names.add(name)
                changed = True
    # Anything also assigned a non-set expression is poisoned.
    for scope, name, value, annotation, info in assignments:
        is_set = _annotation_is_set(annotation) or (
            value is not None and _set_description(value, scope, info) is not None
        )
        if not is_set and (value is not None or annotation is not None):
            scope.poisoned.add(name)
    return frames
