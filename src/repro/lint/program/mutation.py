"""Per-function mutation and aliasing fact extraction.

The mutation half of the whole-program analysis: every function is
distilled into a list of **store facts** — attribute stores, subscript
stores (including slice assignment), augmented assignments, ``del``
targets, and calls to container-mutating methods (``append`` /
``update`` / ``setdefault`` / ``clear`` / …) or functions that mutate
their first argument in place (``heappush`` and friends) — plus an
**alias map** from single-assigned locals to the pure attribute chains
they alias (``slots = self._slots`` means ``slots.append(x)`` mutates
``self._slots``).

Each store fact is a plain dict (alongside the rest of
:class:`~repro.lint.program.facts.FileFacts`)::

    {"path": "self.stats.probes", "line": 17, "kind": "attr"}
    {"path": "self._path_cache",  "line": 90, "kind": "subscript"}
    {"path": "router.interfaces", "line": 42, "kind": "call:append"}

``path`` is the dotted chain being written through, **before** alias
expansion — expansion happens at rule time against the function's alias
map so the facts stay a pure function of the file's bytes.

The same pass records **class facts** per file: declared fields (from
``__slots__``, dataclass-style annotated class bodies, and ``self.X``
stores inside ``__init__``/``__post_init__``) and any
``@run_state(...)`` registration (fields, ``shared=`` survivors,
``constructed_per_run=`` flag).  The rules in :mod:`.escape` join these
into the world model MUT101/MUT102/MUT103 check against.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional

from ..index import ScopeIndex, dotted_name

#: Method names whose call mutates the receiver container in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)

#: Free functions that mutate their first positional argument in place.
MUTATOR_FUNCTIONS = frozenset(
    {
        "heappush",
        "heappop",
        "heapify",
        "heapreplace",
        "heappushpop",
        "insort",
        "insort_left",
        "insort_right",
    }
)


def store_facts(own_nodes: Iterable[ast.AST]) -> List[Dict[str, Any]]:
    """Every mutation this scope performs, in (line, path) order."""
    stores: List[Dict[str, Any]] = []

    def emit(path: Optional[str], line: int, kind: str) -> None:
        if path is not None:
            stores.append({"path": path, "line": line, "kind": kind})

    def target_store(target: ast.AST, line: int) -> None:
        if isinstance(target, ast.Attribute):
            emit(dotted_name(target), line, "attr")
        elif isinstance(target, ast.Subscript):
            emit(dotted_name(target.value), line, "subscript")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                target_store(element, line)
        elif isinstance(target, ast.Starred):
            target_store(target.value, line)

    for node in own_nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                target_store(target, node.lineno)
        elif isinstance(node, ast.AugAssign):
            target_store(node.target, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                target_store(node.target, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                target_store(target, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                emit(
                    dotted_name(func.value),
                    node.lineno,
                    "call:%s" % func.attr,
                )
            elif (
                isinstance(func, (ast.Name, ast.Attribute))
                and (dotted_name(func) or "").rsplit(".", 1)[-1]
                in MUTATOR_FUNCTIONS
                and node.args
            ):
                name = (dotted_name(func) or "").rsplit(".", 1)[-1]
                emit(dotted_name(node.args[0]), node.lineno, "call:%s" % name)
    stores.sort(key=lambda item: (item["line"], item["path"], item["kind"]))
    return stores


def alias_facts(env: Dict[str, ast.AST]) -> Dict[str, str]:
    """local name -> dotted chain, for single-assigned pure-chain locals.

    ``env`` is the scope's single-assignment map (see
    :func:`~repro.lint.program.facts._single_assignments`).
    """
    aliases: Dict[str, str] = {}
    for name, value in env.items():
        path = dotted_name(value)
        if path is not None and path != name:
            aliases[name] = path
    return aliases


# ---------------------------------------------------------------------------
# class facts: declared fields + @run_state registrations


def class_facts(index: ScopeIndex) -> List[Dict[str, Any]]:
    """One dict per class defined anywhere in the file."""
    found = [_class_fact(scope.node, index) for scope in index.classes]
    found.sort(key=lambda item: (item["line"], item["name"]))
    return found


def _class_fact(node: ast.ClassDef, index: ScopeIndex) -> Dict[str, Any]:
    info: Dict[str, Any] = {
        "name": node.name,
        "line": node.lineno,
        "fields": {},
        "registered": False,
        "reg_line": None,
        "run_state": [],
        "run_shared": [],
        "per_run": False,
    }
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = dotted_name(deco.func)
        if name is None or name.rsplit(".", 1)[-1] != "run_state":
            continue
        info["registered"] = True
        info["reg_line"] = deco.lineno
        info["run_state"] = sorted(_string_items(deco.args))
        for keyword in deco.keywords:
            if keyword.arg == "shared":
                items = (
                    keyword.value.elts
                    if isinstance(keyword.value, (ast.Tuple, ast.List))
                    else []
                )
                info["run_shared"] = sorted(_string_items(items))
            elif keyword.arg == "constructed_per_run":
                if isinstance(keyword.value, ast.Constant):
                    info["per_run"] = bool(keyword.value.value)
    fields: Dict[str, int] = info["fields"]
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    for slot in _string_items(
                        statement.value.elts
                        if isinstance(statement.value, (ast.Tuple, ast.List))
                        else []
                    ):
                        fields.setdefault(slot, statement.lineno)
        elif isinstance(statement, ast.AnnAssign):
            # dataclass-style declared field
            if isinstance(statement.target, ast.Name):
                fields.setdefault(statement.target.id, statement.lineno)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if statement.name in ("__init__", "__post_init__"):
                # ``self.X = ...`` anywhere inside a constructor declares X.
                for scope in index.scope_of[statement].walk():
                    for name, site, _ in scope.bindings:
                        if name.startswith("self."):
                            fields.setdefault(name[5:], site.node.lineno)
    return info


def _string_items(nodes: Iterable[ast.AST]) -> List[str]:
    items: List[str] = []
    for node in nodes:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            items.append(node.value)
    return items
