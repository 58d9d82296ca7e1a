"""Per-file fact extraction for the whole-program analysis.

The program layer never re-walks an AST during graph construction:
everything the interprocedural rules need is distilled here into plain
dicts (:class:`FileFacts`), keyed by the defining function.  Facts depend
only on the file's bytes and its dotted module path, never on another
file.

Facts recorded per function (including nested functions and the module
top level as the pseudo-function ``<module>``):

* direct DET001-banned calls (wall-clock exemption already applied for
  ``repro.obs.wallclock``), feeding DET101's impurity seeds;
* outgoing calls with import-origin-resolved targets plus a coarse
  dataflow class for each argument, feeding both the call graph and
  RNG101's interprocedural seed tracing;
* bare-name / ``self.X`` references passed as call arguments — the
  callback pattern (``internet.exchange(engine, packet, now, deliver)``)
  that a pure call graph would miss;
* ``random.Random(seed_expr)`` construction sites with the seed
  expression classified (constant / seed-like / parameter-dependent /
  untraceable).

Argument / seed-expression classes are tag strings:

``"c"``
    constant (literal, or UPPERCASE module constant);
``"s"``
    seed-like — a name or attribute matching ``seed``/``key``, or a
    call to a ``derive``/``mix``-style function;
``"p:<name>"``
    depends on the enclosing function's parameter ``<name>`` (resolved
    interprocedurally through call sites by RNG101);
``"o:<detail>"``
    opaque — a name/expression the dataflow cannot trace.  Legal when
    mixed with seed material (``seed * 7_919 + asn`` derives a stream
    from deterministic world data), illegal as the sole seed;
``"b:<detail>"``
    bad — a known entropy source; never legal in a seed expression.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..checkers.det001 import verdict
from ..core import SourceFile
from ..index import (
    Scope,
    ScopeIndex,
    Site,
    dotted_name,
    level_order,
    name_or_self,
    resolve_call_target,
)
from . import perf

#: Names/attributes that look like seed material for RNG101.
_SEEDLIKE = re.compile(r"(seed|key)", re.IGNORECASE)
#: Function names whose return value counts as derived seed material.
_SEED_DERIVER = re.compile(r"(seed|key|derive|mix)", re.IGNORECASE)
#: Integer-preserving builtins RNG101 looks through.
_PASSTHROUGH_CALLS = frozenset({"int", "abs", "round", "min", "max", "sum"})


@dataclass
class FunctionFact:
    """Everything later passes need to know about one function."""

    qname: str  # dotted path inside the module ("Engine.run", "outer.inner")
    line: int
    method: bool  # defined directly inside a class body
    root: bool  # marked `# repro-lint: program-root`
    hot: bool = False  # marked `# repro-lint: hot-loop` (PERF hot root)
    params: List[str] = field(default_factory=list)
    #: (resolved target, line) of direct DET001-banned calls.
    banned: List[Tuple[str, int]] = field(default_factory=list)
    #: outgoing calls: see :func:`_call_fact`.
    calls: List[Dict[str, Any]] = field(default_factory=list)
    #: bare-name / self.X references passed as call arguments.
    refs: List[Tuple[str, int]] = field(default_factory=list)
    #: random.Random sites: {"line", "tags": [...]}
    rng_sites: List[Dict[str, Any]] = field(default_factory=list)
    #: perf sites: {"rule", "kind", "line", "loop", "detail"} (see :mod:`.perf`).
    perf: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class FileFacts:
    """Facts for one source file, independent of every other file."""

    module: str
    functions: List[FunctionFact] = field(default_factory=list)
    #: True when the file failed to parse (facts are empty, not absent).
    parse_error: bool = False


def extract_facts(file: SourceFile) -> FileFacts:
    """Distill one file's scope index into :class:`FileFacts` (a pure
    function of the file's bytes and module path)."""
    facts = FileFacts(module=file.module, parse_error=file.error is not None)
    if facts.parse_error:
        return facts
    index = file.index
    for scope in index.frames:
        # Breadth-first: the order call / ref facts are defined in.
        own = level_order(scope.own)
        facts.functions.append(_function_fact(scope, own, file.module, index))
    facts.functions.sort(key=lambda fact: (fact.line, fact.qname))
    return facts


# ---------------------------------------------------------------------------
# per-function facts


def _function_fact(
    scope: Scope, own: List[Site], module: str, index: ScopeIndex
) -> FunctionFact:
    origins = index.origins
    fact = FunctionFact(
        qname=scope.qname,
        line=getattr(scope.node, "lineno", 1),
        method=scope.method,
        root=index.marked(scope.node, "program-root"),
        hot=index.marked(scope.node, "hot-loop"),
        params=[arg.arg for arg in scope.params],
    )
    env = _single_assignments(scope)
    params = set(fact.params)
    for site in own:
        node = site.node
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, origins)
        raw = dotted_name(node.func)
        banned = target and verdict(target, node, module)
        if banned:
            fact.banned.append((banned[0], node.lineno))
        fact.calls.append(
            _call_fact(node, target, raw, origins, env, params)
        )
        for arg in node.args:
            ref = name_or_self(arg)
            if ref is not None:
                fact.refs.append((ref, node.lineno))
        if target == "random.Random" and node.args:
            tags = _classify_seed(node.args[0], origins, env, params)
            fact.rng_sites.append({"line": node.lineno, "tags": sorted(tags)})
    fact.banned.sort(key=lambda item: (item[1], item[0]))
    fact.perf = perf.perf_sites(scope, origins)
    return fact


def _call_fact(
    node: ast.Call,
    target: Optional[str],
    raw: Optional[str],
    origins: Dict[str, str],
    env: Dict[str, ast.AST],
    params: Set[str],
) -> Dict[str, Any]:
    attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
    return {
        "target": target,
        "raw": raw,
        "attr": attr,
        "line": node.lineno,
        "args": [
            sorted(_classify_seed(arg, origins, env, params)) for arg in node.args
        ],
        "kwargs": {
            kw.arg: sorted(_classify_seed(kw.value, origins, env, params))
            for kw in node.keywords
            if kw.arg is not None
        },
    }


# ---------------------------------------------------------------------------
# RNG101 seed-expression classification


def _single_assignments(scope: Scope) -> Dict[str, ast.AST]:
    """name -> value expr for locals bound exactly once in ``scope``, by
    a plain assignment (an augmented/annotated assignment or a loop
    target makes the name multiply-bound)."""
    counts: Dict[str, int] = {}
    values: Dict[str, ast.AST] = {}
    for name, site, value in scope.bindings:
        if "." in name:
            continue
        plain = isinstance(site.node, ast.Assign)
        counts[name] = counts.get(name, 0) + (1 if plain else 2)
        if plain:
            values[name] = value
    return {
        name: value for name, value in values.items() if counts.get(name) == 1
    }


def _classify_seed(
    node: ast.AST,
    origins: Dict[str, str],
    env: Dict[str, ast.AST],
    params: Set[str],
    depth: int = 0,
) -> Set[str]:
    """Tag set for a seed-ish expression (see module docstring)."""
    if depth > 6:
        return {"c"}
    recurse = lambda child: _classify_seed(  # noqa: E731
        child, origins, env, params, depth + 1
    )
    if isinstance(node, ast.Constant):
        return {"c"}
    if isinstance(node, ast.Name):
        if node.id in params:
            # A seed-named parameter counts as seed material *and* is
            # still traced through call sites (entropy fed into a `seed`
            # argument stays catchable).
            if _SEEDLIKE.search(node.id):
                return {"s", "p:%s" % node.id}
            return {"p:%s" % node.id}
        if node.id in env:
            return recurse(env[node.id])
        if node.id.isupper() or node.id in ("True", "False", "None"):
            return {"c"}
        if _SEEDLIKE.search(node.id):
            return {"s"}
        return {"o:name '%s' is not traceable to a seed" % node.id}
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        label = dotted if dotted is not None else node.attr
        if _SEEDLIKE.search(label):
            return {"s"}
        if node.attr.isupper():
            return {"c"}
        return {"o:attribute '%s' is not traceable to a seed" % label}
    if isinstance(node, ast.Call):
        target = resolve_call_target(node.func, origins)
        name = dotted_name(node.func) or ""
        if target is not None and verdict(target, node, "") is not None:
            return {"b:entropy source %s()" % target}
        if target in _PASSTHROUGH_CALLS and node.args:
            tags: Set[str] = set()
            for arg in node.args:
                tags |= recurse(arg)
            return tags
        if _SEED_DERIVER.search(name.rsplit(".", 1)[-1]):
            return {"s"}
        last = name.rsplit(".", 1)[-1]
        return {"o:call to %s() is not a recognized seed derivation" % (last or "?")}
    if isinstance(node, ast.BinOp):
        return recurse(node.left) | recurse(node.right)
    if isinstance(node, ast.UnaryOp):
        return recurse(node.operand)
    if isinstance(node, ast.IfExp):
        return recurse(node.body) | recurse(node.orelse)
    if isinstance(node, (ast.Tuple, ast.List)):
        tags = set()
        for element in node.elts:
            tags |= recurse(element)
        return tags or {"c"}
    if isinstance(node, ast.Subscript):
        return recurse(node.value)
    if isinstance(node, ast.JoinedStr):
        return {"c"}
    return {"o:%s expression is not traceable to a seed" % type(node).__name__}

