"""MUT101: shard workers may only mutate registered per-run state.

The parallel runner shares ONE built world across shard campaigns
(fork-inherited or rewound in-process), so the soundness of
``run_parallel == run_single`` rests on an invariant: everything a
worker-side code path writes between rewinds must be state that
``Internet.fresh_run_state`` restores — i.e. a field declared in some
``@run_state(...)`` registration (or a ``shared=`` cache whose content
is a pure function of the immutable topology).

This rule proves the invariant statically.  Every function reachable
from the shard-worker roots (``run_shard`` / ``run_single``) — with the
build cut applied, since constructing a world is not mutating one — has
its store facts alias-expanded and resolved against the RunState world
model.  A write that lands on world state outside every registration is
a finding, anchored at the write with the witness call chain from the
root in the message::

    'internet.Internet.probe' (reachable from shard worker root
    'parallel.run_shard' via parallel.run_shard -> campaign.run_campaign
    -> internet.Internet.probe) writes world state 'self.counter' not
    registered as per-run state

Writes the resolution cannot prove to target world state (locals,
non-world classes' own fields, fields declared on both sides of the
world boundary) are skipped — the rule reports only what it can prove,
and ShardSan covers the remainder at runtime.
"""

from __future__ import annotations

from typing import List

from ..core import Program, Violation
from . import escape
from .graph import WORKER_ROOTS, reachable_from, witness_chain

RULE = "MUT101"
DESCRIPTION = (
    "whole-program: no code path reachable from the parallel shard "
    "workers may write world state missing from the @run_state registry "
    "(the shared-world rewind contract)"
)


def check(program: Program) -> List[Violation]:
    graph, facts = program.graph, program.facts
    model = escape.WorldModel.from_facts(facts)
    reached = reachable_from(graph, WORKER_ROOTS, cut=True)
    violations: List[Violation] = []
    for full in sorted(reached):
        fact, _, path = graph.nodes[full]
        owner = model.owner_of(graph, full)
        for store in fact.stores:
            expanded = escape.expand(store["path"], fact.aliases)
            resolution = escape.resolve_store(
                expanded.split("."), owner, model
            )
            if resolution.verdict != escape.UNREGISTERED:
                continue
            chain = witness_chain(graph, full, lambda current: reached[current].parent)
            root = reached[full].root
            violations.append(
                Violation(
                    rule=RULE,
                    path=path,
                    line=store["line"],
                    column=1,
                    message=(
                        "'%s' (reachable from shard worker root '%s' via %s) "
                        "writes world state '%s' not registered as per-run "
                        "state — declare it in @run_state(...) or mark it "
                        "shared=(...) if it survives the rewind"
                        % (
                            graph.display(full),
                            graph.display(root),
                            " -> ".join(reversed(chain)),
                            expanded,
                        )
                    ),
                )
            )
    return violations
