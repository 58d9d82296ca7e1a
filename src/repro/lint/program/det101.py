"""DET101: transitive impurity reachable from the engine's entry points.

DET001 catches a direct ``time.time()`` in simulation code; DET101
catches the one hidden two hops away.  A function is **impure** when it
contains a DET001-banned call or (transitively) calls an impure
function; a function is **reachable** when a forward walk from the
program roots (``Engine.run``, ``run_campaign``, the parallel-runner
workers, anything marked ``# repro-lint: program-root``) can arrive at
it over call or callback-reference edges.  Every reachable impure
function is a finding, anchored at the call that leads toward the
banned source, with the full witness chain in the message::

    'campaign.run_campaign.tick' is reachable from program root
    'campaign.run_campaign' and reaches nondeterministic time.time() via
    campaign.run_campaign.tick -> engine.jitter_us -> time.time

``repro.obs.wallclock`` is the single allowed wall-clock sink: its time
reads are exempted at fact-extraction time, so calling ``obs.now()``
from reachable code is clean (entropy sources stay banned even there).

A banned call whose line carries ``# repro-lint: disable=DET001`` (or
``=DET101``) is not an impurity seed — the suppression is an audited
assertion that the nondeterminism cannot escape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import Program, Suppressions, Violation
from .graph import ProgramGraph, reachable_from, witness_chain

RULE = "DET101"
DESCRIPTION = (
    "whole-program: no call chain from Engine.run / prober loops / "
    "parallel workers may reach a DET001-banned source (repro.obs."
    "wallclock is the single allowed wall-clock sink)"
)

#: witness: (next function on the chain or None, banned target, anchor line)
_Witness = Tuple[Optional[str], str, int]


def check(program: Program) -> List[Violation]:
    graph = program.graph
    suppressions = {item.path: item.suppressions for item in program.files}
    impure = _impurity(graph, suppressions)
    reached = reachable_from(graph, graph.roots(), cut=False)
    violations: List[Violation] = []
    for full in sorted(impure):
        if full not in reached:
            continue
        _, _, path = graph.nodes[full]
        next_hop, banned, line = impure[full]
        chain = witness_chain(graph, full, lambda current: impure[current][0])
        chain.append(banned.split(" ", 1)[0])
        violations.append(
            Violation(
                rule=RULE,
                path=path,
                line=line,
                column=1,
                message=(
                    "'%s' is reachable from program root '%s' and reaches "
                    "nondeterministic %s via %s"
                    % (
                        graph.display(full),
                        graph.display(reached[full].root),
                        _callable_label(banned),
                        " -> ".join(chain),
                    )
                ),
            )
        )
    return violations


def _callable_label(banned: str) -> str:
    head = banned.split(" ", 1)
    suffix = " " + head[1] if len(head) > 1 else ""
    return "%s()%s" % (head[0], suffix)


def _impurity(
    graph: ProgramGraph, suppressions: Dict[str, Suppressions]
) -> Dict[str, _Witness]:
    impure: Dict[str, _Witness] = {}
    for full in sorted(graph.nodes):
        fact, _, path = graph.nodes[full]
        supp = suppressions.get(path)
        for target, line in fact.banned:
            if supp is not None and (
                supp.is_disabled("DET001", line) or supp.is_disabled(RULE, line)
            ):
                continue
            impure[full] = (None, target, line)
            break
    # Reverse propagation to a fixpoint: a caller of an impure function
    # is impure, witnessed by the call line.  Deterministic order.
    changed = True
    while changed:
        changed = False
        for src in sorted(graph.edges):
            if src in impure:
                continue
            for edge in graph.edges[src]:
                if edge.dst in impure:
                    impure[src] = (edge.dst, impure[edge.dst][1], edge.line)
                    changed = True
                    break
    return impure
