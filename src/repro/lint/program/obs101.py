"""OBS101: telemetry is observe-only inside ``netsim``/``prober``.

``repro.obs`` exists so a campaign can *report* what happened; the
moment a counter value steers a branch, feeds arithmetic, or lands in
simulation state, disabling metrics changes the run — the exact
Heisenberg failure PR 3's decoupling property-tests guard against at
runtime.  OBS101 is the static half: inside any ``netsim``/``prober``
module, no value read back from a telemetry handle (``to_dict()``,
``total()``, ``elapsed_seconds()``, ...) may flow into control flow,
arithmetic, object state, or mutating calls on non-telemetry objects.

Building handles (``registry.counter(...)``) and shipping readbacks out
through plain function calls or return values (``CampaignResult(metrics=
registry.to_dict())``) stay legal — that is the observe path.

The dataflow facts are extracted per file (cacheable); this module only
applies the module scope and renders violations.
"""

from __future__ import annotations

from typing import List

from ..core import Program, Violation

RULE = "OBS101"
DESCRIPTION = (
    "whole-program: no dataflow from repro.obs readbacks into netsim/"
    "prober control flow or state (telemetry is observe-only)"
)


def in_scope(module: str) -> bool:
    parts = module.split(".")
    if "obs" in parts:
        return False
    return "netsim" in parts or "prober" in parts


def check(program: Program) -> List[Violation]:
    files = program.facts
    violations: List[Violation] = []
    for path in sorted(files):
        facts = files[path]
        if not in_scope(facts.module):
            continue
        for flow in facts.obs_flows:
            violations.append(
                Violation(
                    rule=RULE,
                    path=path,
                    line=flow["line"],
                    column=flow["col"],
                    message="%s; repro.obs is observe-only in simulation "
                    "code (guarantee: metrics on/off cannot change the run)"
                    % flow["detail"],
                )
            )
    return violations
