"""Per-function performance-site extraction and hot-region machinery.

Every function is distilled at fact-extraction time into a list of
**perf sites** — allocation expressions, superlinear accumulation
patterns, and numpy↔Python scalar churn — each tagged with whether it
sits inside a syntactic loop.  The PERF rules then intersect those
sites with the **hot region**: every function reachable (build cut
applied — constructing a world or a template is setup, not steady
state) from a hot root.

A hot root is a function marked ``# repro-lint: hot-loop`` on (or
immediately above) its ``def`` line: it *is the body of* a
per-probe/per-batch loop, so its own straight-line code counts as
per-iteration context even outside a syntactic ``for``/``while``.  The
live tree marks nine: the ``run_campaign`` block loop and its delivery,
the keyed permutation, template encoding, the prober's send and receive
paths, and ``Internet.probe`` / ``Internet.answer`` — the network half
of every probe, which the block loop reaches only through a local the
call graph cannot follow.

Each perf site is a plain dict (alongside the rest of
:class:`~repro.lint.program.facts.FileFacts`)::

    {"rule": "PERF101", "kind": "comprehension", "line": 17,
     "loop": true, "detail": "a throwaway list comprehension"}

``loop`` records syntactic loop context only; whether a non-loop site
counts as per-iteration (hot-root bodies do) is decided at rule time so
the facts stay a pure function of the file's bytes.

The three rules are rows of :data:`RULES` — the site kinds a rule owns
and how it words a finding — over one :meth:`HotRegionRule.check`:

* **PERF101**, per-iteration allocation.  The columnar fast paths exist
  because the scalar hot path spent most of its time constructing
  throwaway objects: comprehensions and non-empty container literals,
  object construction (CapWords calls, the raise path excluded), and
  ``struct.pack`` where a prebuilt ``ProbeTemplate`` patch exists.
  Amortized or output-carrying allocations (a batch's result list, a
  per-response record) are the caller's call — suppress with a reason.
* **PERF102**, superlinear accumulation — O(n) work per iteration turns
  an O(n) campaign into O(n²): ``bytes``/``str`` ``+=`` on a
  sequence-initialized local, ``list.insert(0, ...)``, membership tests
  against a list-initialized local, ``sorted()``/``.sort()`` per turn.
* **PERF103**, numpy↔Python scalar churn — the vectorized Feistel walk
  pays only while work stays inside numpy: ``.item()`` calls,
  element-wise indexing of an array local by a loop variable (mask/fancy
  indexing is vectorized and NOT flagged), ``for x in arr:``, and
  ``np.append``.  Array locals are recognized by assignment from
  ``numpy.*`` calls (or attribute calls on a known array local); the
  sanctioned exit from numpy is one bulk ``values.tolist()`` per batch.

A site counts when it sits inside a syntactic loop, or anywhere in a hot
*root's* body (the root function is itself the loop body).  Findings are
anchored at the site with the witness call chain from the hot root.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..core import Program, Violation
from ..index import Scope, dotted_name, resolve_call_target
from .graph import ProgramGraph, Reach, reachable_from, witness_chain

#: Class-looking callable (CapWords, not an ALL_CAPS constant).
_CLASS_NAME = re.compile(r"^[A-Z][A-Za-z0-9]*$")
#: Exception-looking class names — constructing one sits on the raise
#: path, which is not steady-state allocation.
_EXCEPTION_NAME = re.compile(r"(Error|Exception|Warning)$")


# ---------------------------------------------------------------------------
# hot-region computation (rule-time half)


def hot_roots(graph: ProgramGraph) -> Set[str]:
    """The functions marked ``# repro-lint: hot-loop``."""
    return {full for full, (fact, _, _) in graph.nodes.items() if fact.hot}


def hot_region(graph: ProgramGraph) -> Tuple[Set[str], Dict[str, Reach]]:
    """(hot roots, reachable functions) with the build cut applied."""
    roots = hot_roots(graph)
    return roots, reachable_from(graph, roots)


class HotRegionRule(NamedTuple):
    """One PERF rule: the site kinds it owns and its finding's wording."""

    RULE: str
    DESCRIPTION: str
    #: Site kinds (see :func:`perf_sites`) this rule owns.
    kinds: FrozenSet[str]
    #: ``% (site detail, witness chain)``, after "'f' is in the hot
    #: region rooted at 'r' and ".
    finding: str

    def check(self, program: Program) -> List[Violation]:
        graph = program.graph
        roots, reached = hot_region(graph)
        violations: List[Violation] = []
        for full in sorted(reached):
            fact, _, path = graph.nodes[full]
            for site in fact.perf:
                if site["rule"] != self.RULE or site["kind"] not in self.kinds:
                    continue
                if not (site["loop"] or full in roots):
                    continue
                violations.append(
                    Violation(
                        rule=self.RULE,
                        path=path,
                        line=site["line"],
                        column=1,
                        message="'%s' is in the hot region rooted at '%s' and %s"
                        % (
                            graph.display(full),
                            graph.display(reached[full].root),
                            self.finding % (site["detail"], witness_chain(graph, reached, full)),
                        ),
                    )
                )
        return violations


RULES = (
    HotRegionRule(
        "PERF101",
        "whole-program: no per-iteration allocation (throwaway "
        "comprehensions/literals, object construction, struct.pack) in "
        "functions reachable from a # repro-lint: hot-loop root",
        frozenset({"comprehension", "display", "construction", "struct-pack"}),
        "allocates %s per iteration via %s — hoist it out of the hot loop "
        "or patch a reused buffer",
    ),
    HotRegionRule(
        "PERF102",
        "whole-program: no superlinear accumulation (bytes/str +=, "
        "list.insert(0), list membership tests, sorted() in loops) in "
        "functions reachable from a # repro-lint: hot-loop root",
        frozenset(
            {"seq-concat", "insert-front", "list-membership", "sort-in-loop"}
        ),
        "accumulates superlinearly: %s via %s",
    ),
    HotRegionRule(
        "PERF103",
        "whole-program: no numpy<->Python scalar churn (.item() loops, "
        "element-wise indexing, np.append) in functions reachable from a "
        "# repro-lint: hot-loop root",
        frozenset({"scalar-item", "scalar-index", "iterate-array", "np-append"}),
        "crosses the numpy<->Python scalar boundary: %s via %s",
    ),
)


# ---------------------------------------------------------------------------
# per-function site extraction (fact-time half)


def perf_sites(scope: Scope, origins: Dict[str, str]) -> List[Dict[str, Any]]:
    """Distill one function scope into perf sites (pure function of the
    AST)."""
    sites: List[Dict[str, Any]] = []
    seq_kinds = _seq_inits(scope)
    numpy_names = _numpy_locals(scope, origins)

    def record(
        rule: str, kind: str, node: ast.AST, loop: bool, detail: str
    ) -> None:
        sites.append(
            {
                "rule": rule,
                "kind": kind,
                "line": getattr(node, "lineno", 1),
                "loop": loop,
                "detail": detail,
            }
        )

    for site in scope.own:
        node, in_loop, in_raise, loop_vars = site.node, site.loop, site.raising, site.loop_vars
        # --- PERF101: per-iteration allocation -------------------------
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            label = {
                ast.ListComp: "list comprehension",
                ast.SetComp: "set comprehension",
                ast.DictComp: "dict comprehension",
            }[type(node)]
            record(
                "PERF101", "comprehension", node, in_loop,
                "a throwaway %s" % label,
            )
        elif isinstance(node, (ast.List, ast.Set)) and node.elts:
            label = "list" if isinstance(node, ast.List) else "set"
            record(
                "PERF101", "display", node, in_loop,
                "a fresh non-empty %s literal" % label,
            )
        elif isinstance(node, ast.Dict) and node.keys:
            record(
                "PERF101", "display", node, in_loop,
                "a fresh non-empty dict literal",
            )
        if isinstance(node, ast.Call):
            target = resolve_call_target(node.func, origins)
            raw = dotted_name(node.func) or ""
            last = (target or raw).rsplit(".", 1)[-1]
            if target == "struct.pack":
                record(
                    "PERF101", "struct-pack", node, in_loop,
                    "packed bytes via struct.pack (patch a prebuilt "
                    "template buffer instead, like ProbeTemplate."
                    "encode_into)",
                )
            elif (
                not in_raise
                and _CLASS_NAME.match(last)
                and not last.isupper()
                and not _EXCEPTION_NAME.search(last)
            ):
                record(
                    "PERF101", "construction", node, in_loop,
                    "a new %s object" % last,
                )
            # --- PERF102: superlinear accumulation ---------------------
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "insert"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                receiver = dotted_name(node.func.value) or "<expr>"
                record(
                    "PERF102", "insert-front", node, in_loop,
                    "'%s.insert(0, ...)' shifts the whole list each call "
                    "(use collections.deque.appendleft)" % receiver,
                )
            if target == "sorted" or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
            ):
                record(
                    "PERF102", "sort-in-loop", node, in_loop,
                    "a full re-sort per iteration (sort once outside the "
                    "loop, or keep a heap)",
                )
            # --- PERF103: numpy <-> Python scalar churn ----------------
            if isinstance(node.func, ast.Attribute) and node.func.attr == "item":
                record(
                    "PERF103", "scalar-item", node, in_loop,
                    "'.item()' unboxing one numpy scalar at a time "
                    "(vectorize across the array)",
                )
            if target == "numpy.append":
                record(
                    "PERF103", "np-append", node, in_loop,
                    "'np.append' copies the whole array each call "
                    "(preallocate, or collect then convert once)",
                )
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if isinstance(node.target, ast.Name):
                kinds = seq_kinds.get(node.target.id, set())
                for seq in ("bytes", "str"):
                    if seq in kinds:
                        record(
                            "PERF102", "seq-concat", node, in_loop,
                            "'%s' grows by %s += concatenation (quadratic; "
                            "collect parts and join once)"
                            % (node.target.id, seq),
                        )
                        break
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            for comparator in node.comparators:
                if (
                    isinstance(comparator, ast.Name)
                    and "list" in seq_kinds.get(comparator.id, set())
                ):
                    record(
                        "PERF102", "list-membership", node, in_loop,
                        "a membership test against list '%s' (linear scan "
                        "per check; use a set)" % comparator.id,
                    )
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.iter, ast.Name) and node.iter.id in numpy_names:
                record(
                    "PERF103", "iterate-array", node, True,
                    "a Python-level loop over array '%s' boxing one scalar "
                    "per element (vectorize the loop body)" % node.iter.id,
                )
        if isinstance(node, ast.Subscript):
            index = node.slice
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in numpy_names
                and isinstance(index, ast.Name)
                and index.id in loop_vars
            ):
                record(
                    "PERF103", "scalar-index", node, in_loop,
                    "element-wise indexing of array '%s' by a loop "
                    "variable (vectorize the loop body)" % node.value.id,
                )

    sites.sort(key=lambda site: (site["line"], site["rule"], site["kind"]))
    return sites


def _init_kind(value: ast.AST) -> Optional[str]:
    if isinstance(value, ast.Constant):
        if isinstance(value.value, str):
            return "str"
        if isinstance(value.value, bytes):
            return "bytes"
        return None
    if isinstance(value, ast.JoinedStr):
        return "str"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in ("str", "bytes", "bytearray", "list"):
            return "bytes" if value.func.id == "bytearray" else value.func.id
    return None


def _seq_inits(scope: Scope) -> Dict[str, Set[str]]:
    """local name -> sequence kinds it was ever initialized with."""
    kinds: Dict[str, Set[str]] = {}
    for name, site, value in scope.bindings:
        if isinstance(site.node, (ast.Assign, ast.AnnAssign)) and value is not None:
            kind = _init_kind(value)
            if kind is not None and "." not in name:
                kinds.setdefault(name, set()).add(kind)
    return kinds


def _numpy_locals(scope: Scope, origins: Dict[str, str]) -> Set[str]:
    """Locals assigned from ``numpy.*`` calls (or from attribute calls
    on an already-known array local — ``rounded = values.astype(...)``)."""
    names: Set[str] = set()
    for name, site, call in scope.bindings:
        if "." in name or not (
            isinstance(site.node, ast.Assign) and isinstance(call, ast.Call)
        ):
            continue
        target_path = resolve_call_target(call.func, origins)
        from_numpy = target_path is not None and target_path.startswith("numpy.")
        from_array = (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in names
        )
        if from_numpy or from_array:
            names.add(name)
    return names
