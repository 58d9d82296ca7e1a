"""Module-import and function-call graph over extracted file facts.

Nodes are fully-qualified function names (``module.qpath``, e.g.
``repro.prober.yarrp6.Yarrp6.next_probes``).  Edges come from three
resolution strategies, applied in order per call site:

1. **Lexical / module scope** — a bare name resolves nested-scope-first
   inside its own module (``tick`` inside ``run_campaign`` resolves to
   ``run_campaign.tick`` before a module-level ``tick``).
2. **Import origins** — a dotted target whose prefix was imported
   resolves across modules, including relative imports (``from .sources
   import leaf_rng`` inside ``repro.addrs.build`` →
   ``repro.addrs.sources.leaf_rng``).
3. **CHA by method name** — an attribute call on an unknown receiver
   (``prober.next_probe(...)``) conservatively edges to *every* program
   method of that name, the classic class-hierarchy-analysis
   over-approximation.  Sound for the PERF rules (the hot region may
   only be over-reported, never missed), and precise enough in practice
   because the repro tree keeps method names distinctive.

Reference edges (names passed as call arguments, like ``deliver`` in
``internet.exchange(engine, packet, now, deliver)``) use the same
resolution and are followed like call edges.  A driver loop is a
generator ``run_campaign`` calls by name (``tick()``) and hands to
``Engine.drive``, so its body hangs off its caller by an ordinary call
edge.  What the graph cannot follow is a bound method held in a local
(``answer = internet.answer`` handed to ``next_probes``): such a callee
is a hot root by its own ``# repro-lint: hot-loop`` marker.

The graph also owns the one forward reachability (:func:`reachable_from`,
which stops at the **build cut**) and the one witness-chain builder
(:func:`witness_chain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - facts -> perf -> graph at import time
    from .facts import FileFacts, FunctionFact

#: The build cut: code reached only through these is world
#: *construction*, not mid-run behaviour.
BUILD_CUT_MODULES = frozenset({"repro.netsim.build"})
BUILD_CUT_NAMES = frozenset(
    {"__init__", "__post_init__", "from_config", "build_internet"}
)


@dataclass
class Edge:
    """One resolved call/reference from ``src`` to ``dst`` (full names)."""

    src: str
    dst: str
    line: int


@dataclass
class ProgramGraph:
    """Indexes + edges over every :class:`FileFacts` in the program."""

    #: full name -> (fact, module, path)
    nodes: Dict[str, Tuple[FunctionFact, str, str]] = field(default_factory=dict)
    #: module -> {qpath -> full name}
    by_module: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: method name -> sorted full names (CHA index; methods only)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: src full name -> outgoing edges, deterministic order
    edges: Dict[str, List[Edge]] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return sum(len(edges) for edges in self.edges.values())

    def display(self, full: str) -> str:
        """Short human name: last module segment + qualified path."""
        fact, module, _ = self.nodes[full]
        head = module.rsplit(".", 1)[-1]
        return "%s.%s" % (head, fact.qname)


@dataclass
class Reach:
    """How a function was reached: the root plus a parent pointer."""

    root: str
    parent: Optional[str]


def is_cut(graph: ProgramGraph, full: str) -> bool:
    fact, module, _ = graph.nodes[full]
    if module in BUILD_CUT_MODULES:
        return True
    return fact.qname.rsplit(".", 1)[-1] in BUILD_CUT_NAMES


def reachable_from(graph: ProgramGraph, roots: Iterable[str]) -> Dict[str, Reach]:
    """Forward BFS from the roots present in the graph that never
    follows an edge into the build cut (edges into
    ``repro.netsim.build`` or into constructors — ``__init__`` /
    ``__post_init__`` / ``from_config`` / ``build_internet``).  A function
    belongs to the first root, in sorted order, that reaches it.
    Deterministic: roots and edges are visited in sorted/recorded order,
    so parent pointers (and therefore witness chains) are stable."""
    reached: Dict[str, Reach] = {}
    for root in sorted(roots):
        if root not in graph.nodes or root in reached:
            continue
        queue = [root]
        reached[root] = Reach(root=root, parent=None)
        while queue:
            current = queue.pop(0)
            for edge in graph.edges.get(current, ()):
                if edge.dst in reached or is_cut(graph, edge.dst):
                    continue
                reached[edge.dst] = Reach(root=root, parent=current)
                queue.append(edge.dst)
    return reached


def witness_chain(graph: ProgramGraph, reached: Dict[str, Reach], full: str) -> str:
    """The call chain from ``full``'s root down to ``full``, in display
    names, along the parent pointers of :func:`reachable_from`."""
    chain: List[str] = []
    current: Optional[str] = full
    while current is not None:
        chain.append(graph.display(current))
        current = reached[current].parent
    return " -> ".join(reversed(chain))


def build_graph(files: Sequence[Tuple[str, FileFacts]]) -> ProgramGraph:
    """``files`` is (path, facts) pairs; order does not matter — all
    indexes and edge lists are sorted deterministically."""
    graph = ProgramGraph()
    for path, facts in sorted(files, key=lambda item: item[0]):
        funcs = graph.by_module.setdefault(facts.module, {})
        for fact in facts.functions:
            if fact.qname == "<module>":
                continue
            full = "%s.%s" % (facts.module, fact.qname)
            graph.nodes[full] = (fact, facts.module, path)
            funcs[fact.qname] = full
            if fact.method:
                name = fact.qname.rsplit(".", 1)[-1]
                graph.methods_by_name.setdefault(name, []).append(full)
    for candidates in graph.methods_by_name.values():
        candidates.sort()
    for path, facts in sorted(files, key=lambda item: item[0]):
        for fact in facts.functions:
            if fact.qname == "<module>":
                continue
            full = "%s.%s" % (facts.module, fact.qname)
            out: List[Edge] = []
            for call in fact.calls:
                for dst in _resolve(graph, facts.module, fact, call):
                    out.append(Edge(src=full, dst=dst, line=call["line"]))
            for name, line in fact.refs:
                for dst in _resolve_ref(graph, facts.module, fact, name):
                    out.append(Edge(src=full, dst=dst, line=line))
            seen: Set[str] = set()
            unique: List[Edge] = []
            for edge in sorted(out, key=lambda e: (e.line, e.dst)):
                if edge.dst in seen:
                    continue
                seen.add(edge.dst)
                unique.append(edge)
            if unique:
                graph.edges[full] = unique
    return graph


def _absolutize(module: str, target: str) -> str:
    """Resolve a leading-dots relative target against ``module``."""
    if not target.startswith("."):
        return target
    level = len(target) - len(target.lstrip("."))
    rest = target[level:]
    package_parts = module.split(".")[:-level] if level else module.split(".")
    if rest:
        return ".".join(package_parts + [rest] if package_parts else [rest])
    return ".".join(package_parts)


def _lookup_scoped(
    graph: ProgramGraph, module: str, scope_qname: str, name: str
) -> Optional[str]:
    """Nested-scope-first lookup of a bare ``name`` inside ``module``."""
    funcs = graph.by_module.get(module, {})
    scope_parts = scope_qname.split(".")
    for depth in range(len(scope_parts), -1, -1):
        candidate = ".".join(scope_parts[:depth] + [name])
        if candidate in funcs:
            return funcs[candidate]
    return None


def _lookup_dotted(graph: ProgramGraph, target: str) -> Optional[str]:
    """Longest-module-prefix lookup of an absolute dotted target."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:split])
        if module in graph.by_module:
            qpath = ".".join(parts[split:])
            return graph.by_module[module].get(qpath)
    return None


def _resolve(
    graph: ProgramGraph,
    module: str,
    caller: FunctionFact,
    call: Dict[str, object],
) -> List[str]:
    raw = call.get("raw")
    target = call.get("target")
    attr = call.get("attr")
    if isinstance(raw, str) and "." not in raw:
        found = _lookup_scoped(graph, module, caller.qname, raw)
        if found is not None:
            return [found]
        if isinstance(target, str) and target != raw:
            found = _lookup_dotted(graph, _absolutize(module, target))
            if found is not None:
                return [found]
        return []
    if isinstance(raw, str) and raw.startswith("self.") and raw.count(".") == 1:
        method = raw.split(".", 1)[1]
        if caller.method:
            class_prefix = caller.qname.rsplit(".", 1)[0]
            funcs = graph.by_module.get(module, {})
            candidate = "%s.%s" % (class_prefix, method)
            if candidate in funcs:
                return [funcs[candidate]]
        return list(graph.methods_by_name.get(method, ()))
    if isinstance(target, str):
        found = _lookup_dotted(graph, _absolutize(module, target))
        if found is not None:
            return [found]
    if isinstance(attr, str):
        return list(graph.methods_by_name.get(attr, ()))
    return []


def _resolve_ref(
    graph: ProgramGraph, module: str, caller: FunctionFact, name: str
) -> List[str]:
    if name.startswith("self."):
        method = name.split(".", 1)[1]
        if caller.method:
            class_prefix = caller.qname.rsplit(".", 1)[0]
            funcs = graph.by_module.get(module, {})
            candidate = "%s.%s" % (class_prefix, method)
            if candidate in funcs:
                return [funcs[candidate]]
        return list(graph.methods_by_name.get(method, ()))
    found = _lookup_scoped(graph, module, caller.qname, name)
    return [found] if found is not None else []
