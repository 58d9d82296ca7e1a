"""Per-file fact extraction for the whole-program analysis.

The program layer never re-walks an AST during graph construction:
everything the interprocedural rules need is distilled here into plain
JSON-serializable dicts (:class:`FileFacts`), keyed by the defining
function.  That is what makes the on-disk cache sound — facts depend
only on the file's bytes and its dotted module path, so a content hash
fully determines them (see :mod:`repro.lint.program.cache`).

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
  untraceable);
* RNG values flowing into worker-boundary dataclass constructors;
* telemetry readback values flowing into simulation state or control
  flow (OBS101, computed per-file and scoped per-module later).

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
from ..checkers.det003 import BOUNDARY_CLASSES, annotation_leaves
from ..core import SourceFile
from ..index import (
    Scope,
    ScopeIndex,
    Site,
    dotted_name,
    leaf_label,
    level_order,
    name_or_self,
    resolve_call_target,
)
from . import mutation, perf

#: Names/attributes that look like seed material for RNG101.
_SEEDLIKE = re.compile(r"(seed|key)", re.IGNORECASE)
#: Function names whose return value counts as derived seed material.
_SEED_DERIVER = re.compile(r"(seed|key|derive|mix)", re.IGNORECASE)
#: Integer-preserving builtins RNG101 looks through.
_PASSTHROUGH_CALLS = frozenset({"int", "abs", "round", "min", "max", "sum"})

#: repro.obs types whose instances are telemetry *handles* (mutating
#: them is fine; reading values back into simulation logic is not).
OBS_TYPES = frozenset(
    {
        "MetricsRegistry",
        "Tracer",
        "Counter",
        "Gauge",
        "CounterMap",
        "TimeSeries",
        "Histogram",
        "Metric",
        "Span",
        "Stopwatch",
        "WallProfiler",
        "NullWallProfiler",
        "FailureReport",
    }
)

#: Handle-producing methods on obs objects — their results are still
#: handles, so assigning them to ``self.x`` is the sanctioned idiom.
OBS_FACTORY_METHODS = frozenset(
    {
        "counter",
        "gauge",
        "counter_map",
        "series",
        "histogram",
        "span",
        "stopwatch",
        "phase",
        "agg",
    }
)

#: Readback methods — their results are *data* and must not steer the
#: simulation (OBS101).
OBS_READBACK_METHODS = frozenset(
    {
        "to_dict",
        "to_list",
        "dumps",
        "payload",
        "points",
        "total",
        "get",
        "names",
        "values",
        "snapshot",
        "elapsed_seconds",
        "percentile",
        "mean",
        "value",
        "total_seconds",
        "coverage",
        "report",
        "to_profile_dict",
        "export",
        "counts",
        "faults",
    }
)

_OBS_ORIGIN = re.compile(r"(^|\.)obs(\.|$)")


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
    #: mutation facts: {"path", "line", "kind"} (see :mod:`.mutation`).
    stores: List[Dict[str, Any]] = field(default_factory=list)
    #: single-assigned local -> the pure attribute chain it aliases.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: perf sites: {"rule", "kind", "line", "loop", "detail"} (see :mod:`.perf`).
    perf: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class FileFacts:
    """Facts for one source file, independent of every other file."""

    module: str
    functions: List[FunctionFact] = field(default_factory=list)
    #: RNG-across-worker-boundary findings: {"line", "cls", "detail"}
    boundary_rng: List[Dict[str, Any]] = field(default_factory=list)
    #: OBS101 findings (module scoping applied later): {"line", "col", "detail"}
    obs_flows: List[Dict[str, Any]] = field(default_factory=list)
    #: class declarations + @run_state registrations (see :mod:`.mutation`).
    classes: List[Dict[str, Any]] = field(default_factory=list)
    #: True when the file failed to parse (facts are empty, not absent).
    parse_error: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FileFacts":
        """Inverse of ``dataclasses.asdict`` (after a JSON round trip)."""
        functions = [FunctionFact(**item) for item in data["functions"]]
        return cls(**dict(data, functions=functions))


def extract_facts(file: SourceFile) -> FileFacts:
    """Distill one file's scope index into :class:`FileFacts` (pure
    function of the file's bytes and module path — cacheable by content
    hash)."""
    facts = FileFacts(module=file.module, parse_error=file.error is not None)
    if facts.parse_error:
        return facts
    index = file.index
    obs_names = {
        local
        for local, origin in index.origins.items()
        if _OBS_ORIGIN.search(origin) and local in OBS_TYPES
    }
    scan_obs = bool(obs_names) or _any_obs_annotation(index)
    for scope in index.frames:
        # Breadth-first: the order call / ref / flow facts are defined in.
        own = level_order(scope.own)
        facts.functions.append(_function_fact(scope, own, file.module, index))
        if scan_obs:
            _obs_scan_scope(scope, own, index.origins, obs_names, facts)
    facts.functions.sort(key=lambda fact: (fact.line, fact.qname))
    facts.obs_flows.sort(key=lambda item: (item["line"], item["col"]))
    _extract_boundary_rng(index, facts)
    facts.classes = mutation.class_facts(index)
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
    fact.stores = mutation.store_facts(site.node for site in own)
    fact.aliases = mutation.alias_facts(env)
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
        "arg_paths": [dotted_name(arg) for arg in node.args],
        "kwarg_paths": {
            kw.arg: dotted_name(kw.value)
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


# ---------------------------------------------------------------------------
# RNG-across-worker-boundary extraction (RNG101, per-file half)


def _extract_boundary_rng(index: ScopeIndex, facts: FileFacts) -> None:
    origins = index.origins
    rng_names = {
        name
        for scope in index.scopes
        for name, site, value in scope.bindings
        if "." not in name
        and isinstance(site.node, ast.Assign)
        and isinstance(value, ast.Call)
        and resolve_call_target(value.func, origins) == "random.Random"
    }
    for scope in index.classes:
        if scope.node.name not in BOUNDARY_CLASSES:
            continue
        for statement in scope.node.body:
            if isinstance(statement, ast.AnnAssign) and "Random" in ast.dump(
                statement.annotation
            ):
                facts.boundary_rng.append(
                    {
                        "line": statement.lineno,
                        "cls": scope.node.name,
                        "detail": "field declared with a Random type",
                    }
                )
    for site in index.of(ast.Call):
        node = site.node
        name = dotted_name(node.func)
        if name is None or name.rsplit(".", 1)[-1] not in BOUNDARY_CLASSES:
            continue
        cls = name.rsplit(".", 1)[-1]
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            detail = _rng_valued(value, origins, rng_names)
            if detail is not None:
                facts.boundary_rng.append(
                    {"line": node.lineno, "cls": cls, "detail": detail}
                )
    facts.boundary_rng.sort(key=lambda item: (item["line"], item["cls"]))


def _rng_valued(
    node: ast.AST, origins: Dict[str, str], rng_names: Set[str]
) -> Optional[str]:
    if isinstance(node, ast.Call):
        target = resolve_call_target(node.func, origins)
        if target == "random.Random":
            return "a random.Random(...) instance"
    if isinstance(node, ast.Name):
        if node.id in rng_names:
            return "local '%s' holding a random.Random instance" % node.id
        if re.search(r"(^|_)rng$", node.id, re.IGNORECASE):
            return "RNG-named value '%s'" % node.id
    return None


# ---------------------------------------------------------------------------
# OBS101 extraction (telemetry is observe-only)


def _any_obs_annotation(index: ScopeIndex) -> bool:
    return any(
        _names_obs_type(site.node.annotation)
        for site in index.of(ast.arg, ast.AnnAssign)
    )


def _names_obs_type(annotation: Optional[ast.AST]) -> bool:
    """Whether an annotation mentions a telemetry type anywhere
    (``MetricsRegistry``, ``Optional[obs.Counter]``, ``"Tracer"``)."""
    return annotation is not None and any(
        leaf_label(leaf) in OBS_TYPES for leaf in annotation_leaves(annotation)
    )


def _obs_scan_scope(
    scope: Scope,
    own: List[Site],
    origins: Dict[str, str],
    obs_names: Set[str],
    facts: FileFacts,
) -> None:
    # Handles (plain names and "self.x" paths): annotated parameters,
    # then bindings from obs constructors/factories in source order.
    handles: Set[str] = {
        arg.arg for arg in scope.params if _names_obs_type(arg.annotation)
    }
    for name, site, value in scope.bindings:
        node = site.node
        if isinstance(node, ast.AnnAssign):
            if _names_obs_type(node.annotation):
                handles.add(name)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(value, ast.Call)
            and _is_obs_handle_expr(value, origins, obs_names, handles)
        ):
            handles.add(name)
    # Tainted locals: readback values and their one-level aliases.
    tainted: Set[str] = {
        name
        for name, site, value in scope.bindings
        if "." not in name
        and isinstance(site.node, ast.Assign)
        and _is_readback(value, handles)
    }
    # Pass 3: flag readback values steering the simulation.  ``reported``
    # holds node ids of readback expressions already flagged, so an
    # ``if reg.total() > 0`` reports once (branch condition), not again
    # for the Compare operand inside it.
    reported: Set[int] = set()
    for node in (site.node for site in own):
        if isinstance(node, (ast.If, ast.While)):
            found = _readback_within(node.test, handles, tainted, reported)
            if found is not None:
                facts.obs_flows.append(
                    _flow(node.test, "telemetry readback %s used in a branch "
                          "condition" % found)
                )
        elif isinstance(node, ast.IfExp):
            found = _readback_within(node.test, handles, tainted, reported)
            if found is not None:
                facts.obs_flows.append(
                    _flow(node.test, "telemetry readback %s used in a "
                          "conditional expression" % found)
                )
        elif isinstance(node, (ast.BinOp, ast.Compare, ast.BoolOp)):
            found = _readback_operand(node, handles, tainted, reported)
            if found is not None:
                facts.obs_flows.append(
                    _flow(node, "telemetry readback %s used as an arithmetic/"
                          "comparison operand" % found)
                )
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Attribute) for t in node.targets):
                found = _direct_readback(node.value, handles, tainted, reported)
                if found is not None:
                    facts.obs_flows.append(
                        _flow(node, "telemetry readback %s assigned into object "
                              "state" % found)
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = name_or_self(node.func.value)
            if receiver in handles:
                continue  # mutating telemetry itself is the whole point
            if node.func.attr in OBS_FACTORY_METHODS:
                continue
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                found = _direct_readback(value, handles, tainted, reported)
                if found is not None:
                    facts.obs_flows.append(
                        _flow(node, "telemetry readback %s passed into .%s() on "
                              "simulation state" % (found, node.func.attr))
                    )


def _flow(node: ast.AST, detail: str) -> Dict[str, Any]:
    return {
        "line": getattr(node, "lineno", 1),
        "col": getattr(node, "col_offset", 0) + 1,
        "detail": detail,
    }


def _is_obs_handle_expr(
    node: ast.Call,
    origins: Dict[str, str],
    obs_names: Set[str],
    handles: Set[str],
) -> bool:
    if isinstance(node.func, ast.Name) and node.func.id in obs_names:
        return True
    if isinstance(node.func, ast.Attribute):
        receiver = name_or_self(node.func.value)
        if receiver in handles and node.func.attr in OBS_FACTORY_METHODS:
            return True
        origin = resolve_call_target(node.func, origins)
        if (
            origin is not None
            and _OBS_ORIGIN.search(origin)
            and origin.rsplit(".", 1)[-1] in OBS_TYPES
        ):
            return True
    return False


def _is_readback(node: ast.AST, handles: Set[str]) -> bool:
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    receiver = name_or_self(node.func.value)
    return receiver in handles and node.func.attr in OBS_READBACK_METHODS


def _direct_readback(
    node: ast.AST, handles: Set[str], tainted: Set[str], reported: Set[int]
) -> Optional[str]:
    if id(node) in reported:
        return None
    if _is_readback(node, handles):
        reported.add(id(node))
        func = node.func  # type: ignore[union-attr]
        receiver = name_or_self(func.value)
        return "%s.%s()" % (receiver, func.attr)
    if isinstance(node, ast.Name) and node.id in tainted:
        reported.add(id(node))
        return "'%s'" % node.id
    return None


def _readback_within(
    node: ast.AST, handles: Set[str], tainted: Set[str], reported: Set[int]
) -> Optional[str]:
    for child in ast.walk(node):
        detail = _direct_readback(child, handles, tainted, reported)
        if detail is not None:
            return detail
    return None


def _readback_operand(
    node: ast.AST, handles: Set[str], tainted: Set[str], reported: Set[int]
) -> Optional[str]:
    if isinstance(node, ast.BinOp):
        operands = [node.left, node.right]
    elif isinstance(node, ast.Compare):
        operands = [node.left] + list(node.comparators)
    elif isinstance(node, ast.BoolOp):
        operands = list(node.values)
    else:
        return None
    for operand in operands:
        detail = _direct_readback(operand, handles, tainted, reported)
        if detail is not None:
            return detail
    return None
