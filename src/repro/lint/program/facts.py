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
  callback pattern (``engine.schedule(interval, tick)``) that a pure
  call graph would miss;
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
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..checkers.common import dotted_name, import_origins, resolve_call_target
from ..checkers.det001 import (
    BANNED_CALLS,
    BANNED_PREFIXES,
    RANDOM_ALLOWED,
    WALLCLOCK_CALLS,
    WALLCLOCK_EXEMPT_MODULES,
)
from ..checkers.det003 import BOUNDARY_CLASSES
from . import mutation, perf

#: ``# repro-lint: program-root`` on a ``def`` line marks the function
#: as a DET101 reachability root (an entry point the engine or the
#: parallel runner calls into).
PROGRAM_ROOT_MARK = re.compile(r"#\s*repro-lint:\s*program-root\b")

#: ``# repro-lint: hot-loop`` marks a PERF hot root (see :mod:`.perf`).
HOT_ROOT_MARK = perf.HOT_ROOT_MARK

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


def extract_facts(source: str, module: str) -> FileFacts:
    """Distill ``source`` into :class:`FileFacts` (pure function of the
    arguments — cacheable by content hash)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return FileFacts(module=module, parse_error=True)
    lines = source.splitlines()
    origins = import_origins(tree)
    facts = FileFacts(module=module)
    for func_node, qname, in_class in _iter_functions(tree):
        facts.functions.append(
            _function_fact(func_node, qname, in_class, module, origins, lines)
        )
    facts.functions.append(
        _function_fact(tree, "<module>", False, module, origins, lines)
    )
    facts.functions.sort(key=lambda fact: (fact.line, fact.qname))
    _extract_boundary_rng(tree, origins, facts)
    _extract_obs_flows(tree, origins, facts)
    facts.classes = mutation.class_facts(tree)
    return facts


# ---------------------------------------------------------------------------
# function discovery & per-function facts


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, str, bool]]:
    def visit(node: ast.AST, prefix: str, in_class: bool) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = prefix + child.name
                yield child, qname, in_class
                yield from visit(child, qname + ".", False)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".", True)
            else:
                yield from visit(child, prefix, in_class)

    return visit(tree, "", False)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes belonging to ``scope`` itself: descends into lambdas and
    comprehensions but not into nested def/class scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _param_names(node: ast.AST) -> List[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    names = [arg.arg for arg in getattr(args, "posonlyargs", [])]
    names += [arg.arg for arg in args.args]
    names += [arg.arg for arg in args.kwonlyargs]
    return names


def _is_root(node: ast.AST, lines: List[str]) -> bool:
    return _marked(node, lines, PROGRAM_ROOT_MARK)


def _is_hot(node: ast.AST, lines: List[str]) -> bool:
    return _marked(node, lines, HOT_ROOT_MARK)


def _marked(node: ast.AST, lines: List[str], mark: "re.Pattern[str]") -> bool:
    lineno = getattr(node, "lineno", 0)
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and mark.search(lines[candidate - 1]):
            return True
    return False


def _classify_banned(
    target: str, call: ast.Call, module: str
) -> Optional[str]:
    """DET001's verdict on a resolved call target, or None if clean."""
    if target in WALLCLOCK_CALLS and module in WALLCLOCK_EXEMPT_MODULES:
        return None
    if target in BANNED_CALLS:
        return target
    if target.startswith(BANNED_PREFIXES):
        return target
    if target == "random.Random":
        if not call.args and not call.keywords:
            return "random.Random [unseeded]"
        return None
    if target.startswith("random.") and target not in RANDOM_ALLOWED:
        return target
    return None


def _function_fact(
    scope: ast.AST,
    qname: str,
    in_class: bool,
    module: str,
    origins: Dict[str, str],
    lines: List[str],
) -> FunctionFact:
    fact = FunctionFact(
        qname=qname,
        line=getattr(scope, "lineno", 1),
        method=in_class,
        root=_is_root(scope, lines),
        hot=_is_hot(scope, lines),
        params=_param_names(scope),
    )
    env = _single_assignments(scope)
    params = set(fact.params)
    for node in _own_nodes(scope):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, origins)
        raw = dotted_name(node.func)
        if target is not None:
            verdict = _classify_banned(target, node, module)
            if verdict is not None:
                fact.banned.append((verdict, node.lineno))
            if target == "hash" and "hash" not in origins:
                fact.banned.append(("hash [PYTHONHASHSEED]", node.lineno))
        fact.calls.append(
            _call_fact(node, target, raw, origins, env, params)
        )
        for arg in node.args:
            ref = _callback_ref(arg)
            if ref is not None:
                fact.refs.append((ref, node.lineno))
        if target == "random.Random" and node.args:
            tags = _classify_seed(node.args[0], origins, env, params)
            fact.rng_sites.append({"line": node.lineno, "tags": sorted(tags)})
    fact.banned.sort(key=lambda item: (item[1], item[0]))
    fact.stores = mutation.store_facts(_own_nodes(scope))
    fact.aliases = mutation.alias_facts(env)
    fact.perf = perf.perf_sites(scope, origins)
    return fact


def _callback_ref(node: ast.AST) -> Optional[str]:
    """A function-valued argument: bare name or ``self.X``."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return "self." + node.attr
    return None


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
        "arg_paths": [mutation.dotted_path(arg) for arg in node.args],
        "kwarg_paths": {
            kw.arg: mutation.dotted_path(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        },
    }


# ---------------------------------------------------------------------------
# RNG101 seed-expression classification


def _single_assignments(scope: ast.AST) -> Dict[str, ast.AST]:
    """name -> value expr for locals assigned exactly once in ``scope``."""
    counts: Dict[str, int] = {}
    values: Dict[str, ast.AST] = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 1
                    values[target.id] = node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
            if isinstance(target, ast.Name):
                counts[target.id] = counts.get(target.id, 0) + 2
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name):
                counts[target.id] = counts.get(target.id, 0) + 2
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
        if target is not None and _classify_banned(target, node, "") is not None:
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


def _extract_boundary_rng(
    tree: ast.Module, origins: Dict[str, str], facts: FileFacts
) -> None:
    rng_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            target_path = resolve_call_target(node.value.func, origins)
            if target_path == "random.Random":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rng_names.add(target.id)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in BOUNDARY_CLASSES:
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                annotation = ast.dump(statement.annotation)
                if "Random" in annotation:
                    facts.boundary_rng.append(
                        {
                            "line": statement.lineno,
                            "cls": node.name,
                            "detail": "field declared with a Random type",
                        }
                    )
        if not isinstance(node, ast.Call):
            continue
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


def _extract_obs_flows(
    tree: ast.Module, origins: Dict[str, str], facts: FileFacts
) -> None:
    obs_names = {
        local
        for local, origin in origins.items()
        if _OBS_ORIGIN.search(origin) and local in OBS_TYPES
    }
    if not obs_names and not _any_obs_annotation(tree):
        return
    for scope_node, _, _ in list(_iter_functions(tree)) + [(tree, "<module>", False)]:
        _obs_scan_scope(scope_node, origins, obs_names, facts)
    facts.obs_flows.sort(key=lambda item: (item["line"], item["col"]))


def _any_obs_annotation(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            label = _annotation_label(node.annotation)
            if label in OBS_TYPES:
                return True
        if isinstance(node, ast.AnnAssign):
            label = _annotation_label(node.annotation)
            if label in OBS_TYPES:
                return True
    return False


def _annotation_label(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Subscript):  # Optional[MetricsRegistry]
        for child in ast.walk(node):
            label = _bare_label(child)
            if label in OBS_TYPES:
                return label
        return None
    return _bare_label(node)


def _bare_label(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].strip("[]")
    return None


def _obs_scan_scope(
    scope: ast.AST,
    origins: Dict[str, str],
    obs_names: Set[str],
    facts: FileFacts,
) -> None:
    handles: Set[str] = set()  # plain names and "self.x" paths
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for arg in (
            list(getattr(scope.args, "posonlyargs", []))
            + scope.args.args
            + scope.args.kwonlyargs
        ):
            if arg.annotation is not None and _annotation_label(arg.annotation) in OBS_TYPES:
                handles.add(arg.arg)
    own = list(_own_nodes(scope))
    # Pass 1: find handles (assignments from obs constructors/factories).
    for node in own:
        if isinstance(node, ast.AnnAssign) and node.target is not None:
            label = _annotation_label(node.annotation)
            path = _name_or_self_path(node.target)
            if label in OBS_TYPES and path is not None:
                handles.add(path)
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if _is_obs_handle_expr(node.value, origins, obs_names, handles):
            for target in node.targets:
                path = _name_or_self_path(target)
                if path is not None:
                    handles.add(path)
    # Pass 2: find tainted readback values and their one-level aliases.
    tainted: Set[str] = set()
    for node in own:
        if isinstance(node, ast.Assign) and _is_readback(node.value, handles):
            for target in node.targets:
                path = _name_or_self_path(target)
                if path is not None and "." not in path:
                    tainted.add(path)
    # Pass 3: flag readback values steering the simulation.  ``reported``
    # holds node ids of readback expressions already flagged, so an
    # ``if reg.total() > 0`` reports once (branch condition), not again
    # for the Compare operand inside it.
    reported: Set[int] = set()
    for node in own:
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
            receiver = _name_or_self_path(node.func.value)
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


def _name_or_self_path(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return "self." + node.attr
    return None


def _is_obs_handle_expr(
    node: ast.Call,
    origins: Dict[str, str],
    obs_names: Set[str],
    handles: Set[str],
) -> bool:
    if isinstance(node.func, ast.Name) and node.func.id in obs_names:
        return True
    if isinstance(node.func, ast.Attribute):
        receiver = _name_or_self_path(node.func.value)
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
    receiver = _name_or_self_path(node.func.value)
    return receiver in handles and node.func.attr in OBS_READBACK_METHODS


def _direct_readback(
    node: ast.AST, handles: Set[str], tainted: Set[str], reported: Set[int]
) -> Optional[str]:
    if id(node) in reported:
        return None
    if _is_readback(node, handles):
        reported.add(id(node))
        func = node.func  # type: ignore[union-attr]
        receiver = _name_or_self_path(func.value)
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
