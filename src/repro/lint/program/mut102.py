"""MUT102: the RunState registry and the rewind must agree exactly.

MUT101 proves workers only touch registered state; this rule proves the
registration *means* something: every field registered as per-run state
is actually restored by ``Internet.fresh_run_state``, and everything
the rewind restores is registered.  The two directions catch the two
ways the contract rots:

* a field gains a ``@run_state`` entry but the reset path never learns
  about it — the registry over-promises, and a shard inherits the
  previous campaign's value (exactly the ``Router._frag_value`` /
  ``_frag_last`` gap this rule was built to catch);
* the reset path clears a field nobody registered — the rewind quietly
  guarantees more than the declared contract, and MUT101/ShardSan stop
  matching what actually happens.

``shared=`` fields are caches that must *survive* the rewind, so a
reset touching one is its own finding.  Classes registered with
``constructed_per_run=True`` (``Engine``, ``InternetStats``, the
per-router ``RouterState`` and its ``TokenBucket``) are exempt
from the never-reset direction: their instances never outlive a run, so
there is nothing to rewind.

Mechanically: forward reachability from ``Internet.fresh_run_state``
(build cut applied), with every reachable store alias-expanded and
attributed to world classes through the same resolution MUT101 uses —
``self`` writes to the enclosing class, dotted writes to the
unambiguous world declarers of the final field (``state.limiter.
observer = None`` attributes to the bucket class).  The rule is
silent when the rewind root is not in the linted tree (e.g. a scoped
lint of ``repro.obs``).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..core import Program, Violation
from . import escape
from .graph import reachable_from, witness_chain

RULE = "MUT102"
DESCRIPTION = (
    "whole-program: @run_state registrations and Internet."
    "fresh_run_state must cover each other exactly — every registered "
    "per-run field is reset, every reset field is registered, shared "
    "caches survive"
)


def check(program: Program) -> List[Violation]:
    graph, facts = program.graph, program.facts
    reached = reachable_from(graph, escape.REWIND_ROOTS, cut=True)
    if not reached:
        return []  # rewind root not in this lint's scope
    model = escape.WorldModel.from_facts(facts)
    violations: List[Violation] = []
    #: (class key, field) -> attribution already reported (dedup: the
    #: same field may be written on several reachable lines).
    reset: Set[Tuple[str, str, str]] = set()
    for full in sorted(reached):
        fact, _, path = graph.nodes[full]
        owner = model.owner_of(graph, full)
        for store in fact.stores:
            expanded = escape.expand(store["path"], fact.aliases)
            resolution = escape.resolve_store(
                expanded.split("."), owner, model
            )
            if resolution.field is None:
                continue
            chain = " -> ".join(
                reversed(witness_chain(graph, full, lambda current: reached[current].parent))
            )
            for entry in resolution.classes:
                key = (entry.module, entry.name, resolution.field)
                if key in reset:
                    continue
                reset.add(key)
                if resolution.field in entry.run_shared:
                    violations.append(
                        Violation(
                            rule=RULE,
                            path=path,
                            line=store["line"],
                            column=1,
                            message=(
                                "'%s.%s' is declared shared (a cache that "
                                "survives the rewind) but fresh_run_state "
                                "resets it via %s"
                                % (entry.label, resolution.field, chain)
                            ),
                        )
                    )
                elif resolution.field not in entry.run_state:
                    violations.append(
                        Violation(
                            rule=RULE,
                            path=path,
                            line=store["line"],
                            column=1,
                            message=(
                                "'%s.%s' is reset by fresh_run_state (via "
                                "%s) but not registered as per-run state — "
                                "add it to the @run_state(...) registration"
                                % (entry.label, resolution.field, chain)
                            ),
                        )
                    )
    # Direction two: registered per-run fields the rewind never touches.
    for entry in model.registered_world_classes():
        if entry.per_run:
            continue  # instances never outlive a run; nothing to rewind
        for field_name in sorted(entry.run_state):
            if (entry.module, entry.name, field_name) in reset:
                continue
            violations.append(
                Violation(
                    rule=RULE,
                    path=entry.path,
                    line=entry.reg_line or entry.line,
                    column=1,
                    message=(
                        "'%s.%s' is registered as per-run state but "
                        "Internet.fresh_run_state never resets it — the "
                        "registry over-promises and a shard would inherit "
                        "the previous campaign's value"
                        % (entry.label, field_name)
                    ),
                )
            )
    return violations
