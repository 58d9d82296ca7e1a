"""MUT103: nothing may mutate objects that crossed the pickle boundary.

``run_parallel`` hands each worker a :class:`CampaignSpec` — by design a
frozen value object, because under a fork start method the parent and
all workers *share* the pre-fork spec pages, and under spawn each worker
gets an independent copy.  A write through the spec (or any object
reachable from it, like the embedded ``InternetConfig``) therefore
diverges silently between start methods and between parent and worker.
DET003 already bans declaring mutable-typed fields on the boundary
classes; this rule tightens that from *types* to *actual writes*: it
taints the spec parameter at each worker entry point, propagates the
taint through call arguments (alias-expanded, positionally mapped with
the ``self``/``cls`` offset for method calls), and flags any store fact
whose expanded path is rooted at a tainted name::

    'campaign.run_campaign' writes 'config.key' through the CampaignSpec
    pickle boundary (tainted via parallel.run_shard ->
    campaign.run_campaign); workers must treat the spec as frozen

Taint does not follow the build cut — ``build_internet`` consumes the
config to construct a fresh world, and its writes are construction, not
boundary mutation (MUT101's cut, applied to the same edges).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import Program, Violation
from . import escape
from .graph import WORKER_ROOTS, ProgramGraph, _resolve, is_cut, witness_chain

RULE = "MUT103"
DESCRIPTION = (
    "whole-program: worker code must never write through the "
    "CampaignSpec handed across the pickle boundary (frozen by "
    "contract; DET003 tightened from field types to actual mutations)"
)

#: The boundary parameter name at the worker roots
#: (:data:`~repro.lint.program.graph.WORKER_ROOTS`).
BOUNDARY_PARAM = "spec"

#: taint witness: how a (function, param) became tainted.
_Witness = Tuple[Optional[str], int]  # (caller full name or None, line)


def check(program: Program) -> List[Violation]:
    graph = program.graph
    tainted = _propagate(graph)
    violations: List[Violation] = []
    for full in sorted(tainted):
        fact, _, path = graph.nodes[full]
        params = tainted[full]
        for store in fact.stores:
            expanded = escape.expand(store["path"], fact.aliases)
            parts = expanded.split(".")
            if len(parts) < 2 or parts[0] not in params:
                continue
            # Deterministic: follow the first witness in sorted param order.
            chain = witness_chain(
                graph,
                full,
                lambda current: tainted[current][min(tainted[current])][0],
            )
            violations.append(
                Violation(
                    rule=RULE,
                    path=path,
                    line=store["line"],
                    column=1,
                    message=(
                        "'%s' writes '%s' through the CampaignSpec pickle "
                        "boundary (tainted via %s); workers must treat the "
                        "spec as frozen"
                        % (graph.display(full), expanded, " -> ".join(reversed(chain)))
                    ),
                )
            )
    return violations


def _propagate(graph: ProgramGraph) -> Dict[str, Dict[str, _Witness]]:
    """function full name -> {tainted param -> witness}, to a fixpoint."""
    tainted: Dict[str, Dict[str, _Witness]] = {}
    queue: List[str] = []
    for root in WORKER_ROOTS:
        node = graph.nodes.get(root)
        if node is not None and BOUNDARY_PARAM in node[0].params:
            tainted[root] = {BOUNDARY_PARAM: (None, node[0].line)}
            queue.append(root)
    while queue:
        src = queue.pop(0)
        fact, module, _ = graph.nodes[src]
        names = set(tainted[src])
        for call in fact.calls:
            flows = _tainted_args(call, fact.aliases, names)
            if not flows:
                continue
            for dst in _resolve(graph, module, fact, call):
                if is_cut(graph, dst):
                    continue
                dst_fact = graph.nodes[dst][0]
                offset = (
                    1
                    if dst_fact.method
                    and call.get("attr") is not None
                    and dst_fact.params
                    and dst_fact.params[0] in ("self", "cls")
                    else 0
                )
                entry = tainted.setdefault(dst, {})
                grew = False
                for index, kwarg in flows:
                    if kwarg is not None:
                        param = kwarg if kwarg in dst_fact.params else None
                    else:
                        position = index + offset
                        param = (
                            dst_fact.params[position]
                            if position < len(dst_fact.params)
                            else None
                        )
                    if param is not None and param not in entry:
                        entry[param] = (src, call["line"])
                        grew = True
                if grew and dst not in queue:
                    queue.append(dst)
    return tainted


def _tainted_args(
    call: Dict[str, object],
    aliases: Dict[str, str],
    names: set,
) -> List[Tuple[int, Optional[str]]]:
    """(positional index, kwarg name or None) of spec-rooted arguments."""
    flows: List[Tuple[int, Optional[str]]] = []
    arg_paths = call.get("arg_paths") or []
    for index, path in enumerate(arg_paths):
        if isinstance(path, str):
            root = escape.expand(path, aliases).partition(".")[0]
            if root in names:
                flows.append((index, None))
    kwarg_paths = call.get("kwarg_paths") or {}
    if isinstance(kwarg_paths, dict):
        for kwarg in sorted(kwarg_paths):
            path = kwarg_paths[kwarg]
            if isinstance(path, str):
                root = escape.expand(path, aliases).partition(".")[0]
                if root in names:
                    flows.append((0, kwarg))
    return flows
