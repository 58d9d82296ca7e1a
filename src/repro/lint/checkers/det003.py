"""DET003: worker-boundary dataclasses must stay in the picklable set.

``run_parallel`` ships a :class:`CampaignSpec` to every worker process.
A field holding a live ``Internet``, an open file, a lambda, or any
other unpicklable object is a *runtime* bomb that only detonates when a
worker process actually starts — and with the ``fork`` start method
some of those objects silently pickle on Linux and explode only under
``spawn`` (the macOS/Windows default).  This rule checks the *declared field types* of
every worker-boundary dataclass against an explicit picklable allowlist,
so the boundary is enforced at lint time on every platform.

A class is a worker boundary when its name is in
:data:`BOUNDARY_CLASSES`, or when a ``# repro-lint: worker-boundary``
comment sits on its ``class`` line or the line above (the extension
point for new spec types).  Every name appearing in a boundary field's annotation must
be in :data:`PICKLABLE_TYPES`; containers are checked recursively
(``Optional[Tuple[int, ...]]`` is fine, ``Optional[Internet]`` is not).
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..core import Program, SourceFile, Violation
from ..index import leaf_label

RULE = "DET003"
DESCRIPTION = (
    "worker-boundary dataclass fields must use declared-picklable "
    "types (the parallel runner pickles them across fork/spawn)"
)

#: Known worker-boundary dataclasses: the parallel runner's spec and the
#: config dataclasses it carries (transitively pickled with it).
BOUNDARY_CLASSES = frozenset(
    {"CampaignSpec", "InternetConfig", "VantageConfig", "Yarrp6Config"}
)

#: The declared picklable set.  Scalars, bytes, the typing containers of
#: those, and the repro config dataclasses that are themselves checked.
PICKLABLE_TYPES = frozenset(
    {
        # scalars
        "int", "float", "str", "bool", "bytes", "None",
        # typing constructs (bare or typing.-qualified)
        "Optional", "Union", "Tuple", "List", "Dict", "Sequence",
        "Mapping", "FrozenSet", "Literal", "Final",
        # builtin generics (PEP 585)
        "tuple", "list", "dict", "frozenset",
        # repro value types known picklable (numbers-only dataclasses,
        # themselves boundary-checked)
        "InternetConfig", "VantageConfig", "Yarrp6Config", "Prefix",
    }
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def annotation_leaves(node: ast.AST) -> Iterator[ast.AST]:
    """Leaf type references inside an annotation expression."""
    if isinstance(node, ast.Name):
        yield node
    elif isinstance(node, ast.Attribute):
        # typing.Optional -> judge by the final attribute
        yield node
    elif isinstance(node, ast.Subscript):
        yield from annotation_leaves(node.value)
        yield from annotation_leaves(node.slice)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from annotation_leaves(element)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from annotation_leaves(node.left)
        yield from annotation_leaves(node.right)
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                yield node
            else:
                yield from annotation_leaves(parsed)
        # None / Ellipsis constants are structural, not type leaves.
    else:
        yield node


def check(program: Program) -> List[Violation]:
    violations: List[Violation] = []
    for file in program.files:
        for scope in file.index.classes:
            node = scope.node
            if node.name not in BOUNDARY_CLASSES and not file.index.marked(
                node, "worker-boundary"
            ):
                continue
            if _is_dataclass(node):
                violations.extend(_check_fields(file, node))
            else:
                violations.append(
                    Violation.at(
                        RULE,
                        file.path,
                        node,
                        "worker-boundary class %s must be a @dataclass so its "
                        "field types are declared and checkable" % node.name,
                    )
                )
    return violations


def _check_fields(file: SourceFile, node: ast.ClassDef) -> Iterator[Violation]:
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        bad: List[str] = []
        for leaf in annotation_leaves(statement.annotation):
            label = leaf_label(leaf)
            if label is None or label not in PICKLABLE_TYPES:
                bad.append(label or ast.dump(leaf))
        if bad:
            yield Violation.at(
                RULE,
                file.path,
                statement,
                "field %s.%s uses type(s) outside the picklable set: %s "
                "(workers receive this object by pickle)"
                % (node.name, statement.target.id, ", ".join(sorted(set(bad)))),
            )
