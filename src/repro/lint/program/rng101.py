"""RNG101: every RNG's seed must trace to spec/world seed material.

``random.Random(x)`` is only as deterministic as ``x``.  The per-file
DET001 rule checks that *a* seed is passed; RNG101 checks that the seed
**means something** — a constant, a ``seed``/``key``-named value, or a
parameter that every caller feeds from one of those.  The dataflow is
the tag classification from fact extraction, resolved interprocedurally
through the call graph's argument classes (depth-limited, memoized).

That no live ``random.Random`` crosses the ``CampaignSpec`` worker
boundary is not this rule's business: ``validate_spec`` refuses any spec
value that is not immutable, a ``Random`` included, before a shard runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core import Program, Violation
from .graph import ProgramGraph

RULE = "RNG101"
DESCRIPTION = (
    "whole-program: random.Random seeds must be dataflow-traceable to "
    "spec/world seed material"
)

#: How many caller hops to follow when a seed depends on a parameter.
MAX_PARAM_DEPTH = 4


#: A judgement: ("bad", detail) for entropy, ("opaque", detail) for an
#: untraceable value, None for clean.
_Verdict = Optional[Tuple[str, str]]


def check(program: Program) -> List[Violation]:
    graph = program.graph
    violations: List[Violation] = []
    memo: Dict[Tuple[str, str], _Verdict] = {}
    for full in sorted(graph.nodes):
        fact, _, path = graph.nodes[full]
        for site in fact.rng_sites:
            verdict = _judge_tags(
                graph, full, set(site.get("tags") or []), memo, depth=0
            )
            if verdict is None:
                continue
            problem = verdict[1]
            violations.append(
                Violation(
                    rule=RULE,
                    path=path,
                    line=site["line"],
                    column=1,
                    message="random.Random seed is not traceable to a "
                    "spec/world seed: %s" % problem,
                )
            )
    return violations


def _judge_tags(
    graph: ProgramGraph,
    owner: str,
    tags: Set[str],
    memo: Dict[Tuple[str, str], _Verdict],
    depth: int,
) -> _Verdict:
    """Judge one tag set.  Entropy (``b:``) always condemns; opaque
    values (``o:``, including parameters that resolve to opaque call
    sites) are excused when seed material (``s``) is mixed in."""
    has_seed = "s" in tags
    for tag in sorted(tags):
        if tag.startswith("b:"):
            return ("bad", tag[2:])
    verdict: _Verdict = None
    if not has_seed:
        for tag in sorted(tags):
            if tag.startswith("o:"):
                verdict = ("opaque", tag[2:])
                break
    for tag in sorted(tags):
        if not tag.startswith("p:"):
            continue
        nested = _judge_param(graph, owner, tag[2:], memo, depth)
        if nested is None:
            continue
        if nested[0] == "bad":
            return nested
        if not has_seed and verdict is None:
            verdict = nested
    return verdict


def _judge_param(
    graph: ProgramGraph,
    full: str,
    param: str,
    memo: Dict[Tuple[str, str], _Verdict],
    depth: int,
) -> _Verdict:
    key = (full, param)
    if key in memo:
        return memo[key]
    memo[key] = None  # cycle guard: recursion through the same param is clean
    fact, _, _ = graph.nodes[full]
    if depth >= MAX_PARAM_DEPTH:
        return None
    callers = graph.callers_of(full)
    call_classes = _classes_at_call_sites(graph, full, fact.params, param, callers)
    if not call_classes:
        result: _Verdict = (
            None
            if _seedlike(param)
            else (
                "opaque",
                "parameter '%s' of %s has no analyzable call sites and is "
                "not seed-named" % (param, graph.display(full)),
            )
        )
        memo[key] = result
        return result
    result = None
    for src, line, tags in call_classes:
        nested = _judge_tags(graph, src, tags, memo, depth + 1)
        if nested is None:
            continue
        located = (
            nested[0],
            "parameter '%s' of %s receives an untraceable value at %s:%d "
            "(%s)" % (param, graph.display(full), _node_path(graph, src), line, nested[1]),
        )
        if nested[0] == "bad":
            memo[key] = located
            return located
        if result is None:
            result = located
    memo[key] = result
    return result


def _node_path(graph: ProgramGraph, full: str) -> str:
    return graph.nodes[full][2]


def _seedlike(name: str) -> bool:
    lowered = name.lower()
    return "seed" in lowered or "key" in lowered or lowered in ("rng", "salt")


def _classes_at_call_sites(
    graph: ProgramGraph,
    full: str,
    params: List[str],
    param: str,
    callers: List[object],
) -> List[Tuple[str, int, Set[str]]]:
    """(caller, line, tag set) for the value bound to ``param`` at each
    resolved call site of ``full``."""
    positional = list(params)
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    try:
        index = positional.index(param)
    except ValueError:
        index = -1
    found: List[Tuple[str, int, Set[str]]] = []
    for edge in callers:
        src_fact, _, _ = graph.nodes[edge.src]  # type: ignore[attr-defined]
        for call in src_fact.calls:
            if call["line"] != edge.line:  # type: ignore[attr-defined]
                continue
            kwargs = call.get("kwargs") or {}
            if param in kwargs:
                found.append((edge.src, call["line"], set(kwargs[param])))  # type: ignore[attr-defined]
            elif 0 <= index < len(call.get("args") or []):
                found.append((edge.src, call["line"], set(call["args"][index])))  # type: ignore[attr-defined]
    return found
