"""The ``probe`` sanitizer checks: ``--detsan`` and ``--allocsan``.

Each is a row of :data:`CHECKS` — a function that runs the campaign
under its sanitizer plus the flag combinations it cannot run with — so
``cmd_probe`` has one dispatch, one constraint loop and one
report-printing block for all of them (the table and its constraints
are documented in docs/observability.md).
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, List, NamedTuple, Optional, TextIO, Tuple

from ..lint import allocsan
from ..lint.detsan import DetSan, hash_seed_pinned
from ..prober.output import dumps

#: What a check returns — see :class:`Check`.
_Outcome = Tuple[Any, List[str], str]


def _check_detsan(
    run_once: Callable[..., Any],
    args: argparse.Namespace,
    out: TextIO,
) -> _Outcome:
    """Dynamic cross-check of the static determinism rules: run the
    campaign under the sanitizer (record mode — finish the run, collect
    every tripwire hit), then rerun clean and demand a byte-identical
    dump."""
    with DetSan(mode="record") as sanitizer:
        instrumented = run_once()
    result = run_once()
    findings = [sanitizer.summary(report) for report in sanitizer.reports]
    if findings:
        return result, findings, (
            "%d nondeterminism report(s) — campaign is outside the "
            "determinism contract" % len(findings)
        )
    if dumps(instrumented) != dumps(result):
        return result, [
            "instrumented dump differs from clean rerun — sanitizer "
            "instrumentation perturbed the campaign"
        ], ""
    return result, [], "clean (0 reports, dump byte-identical to rerun)"


def _check_allocsan(
    run_once: Callable[..., Any],
    args: argparse.Namespace,
    out: TextIO,
) -> _Outcome:
    """Runtime counterpart of the PERF101-103 static rules: account
    tracemalloc bytes and allocator blocks around the hot campaign.run
    phase and enforce the per-probe / per-batch allocation budgets.
    Observe-only: the .yrp6 bytes are identical to an unsanitized run."""
    with allocsan.AllocSanProfiler() as alloc_prof:
        result = run_once(alloc_prof)
    report = allocsan.build_report(alloc_prof, result)
    if args.allocsan_report:
        allocsan.write_report(args.allocsan_report, report)
        out.write("allocsan: budget report -> %s\n" % args.allocsan_report)
    blown = allocsan.check_budgets(report)
    if blown:
        return result, blown, (
            "%d budget violation(s) — the hot path allocates beyond its "
            "contract" % len(blown)
        )
    tracked = report["tracked"]
    return result, [], (
        "clean (%.1f bytes/probe <= %.0f, %.1f blocks/batch <= %.0f over "
        "%d probes / %d batches)"
        % (
            tracked["allocsan.bytes_per_probe"]["value"],
            report["budgets"]["allocsan.bytes_per_probe"],
            tracked["allocsan.blocks_per_batch"]["value"],
            report["budgets"]["allocsan.blocks_per_batch"],
            report["probes"],
            report["batches"],
        )
    )


class Check(NamedTuple):
    """One ``probe`` sanitizer check (a row of :data:`CHECKS`).

    ``run(run_once, args, out)`` executes the campaign under the
    sanitizer and returns ``(result, findings, verdict)``: the campaign
    to save, one line per finding (any finding makes ``probe`` exit 1;
    the first 20 are printed), and the closing line — ``clean (...)``,
    or the count of findings.  The other fields are the row's
    constraints: empty when the check does not have it, else the reason
    shown in the rejection (see :data:`_CONSTRAINTS`).
    """

    run: Callable[..., _Outcome]
    single_worker: str = ""
    needs_hash_seed: str = ""


#: ``probe`` flag -> check.  At most one may be chosen per invocation.
CHECKS = {
    "detsan": Check(
        _check_detsan,
        single_worker="a tripwire hit inside a worker process never "
        "reaches this one's reports",
        needs_hash_seed="hash randomization is per-process nondeterminism",
    ),
    "allocsan": Check(
        _check_allocsan,
        single_worker="the hot phase runs inside worker processes "
        "tracemalloc cannot observe",
    ),
}

#: ``(Check field, violated(args), rejection % (flag, reason))``, in the
#: order they are tested.
_CONSTRAINTS = (
    ("single_worker", lambda args: args.workers > 1,
     "--%s requires --workers 1 (%s)\n"),
    ("needs_hash_seed", lambda args: not hash_seed_pinned(),
     "--%s requires PYTHONHASHSEED pinned to a fixed integer (%s)\n"),
)


def rejection(args: argparse.Namespace, chosen: List[str]) -> Optional[str]:
    """Why the ``chosen`` checks cannot run with these ``probe`` flags, if
    they cannot."""
    if len(chosen) > 1:
        return "--detsan and --allocsan are mutually exclusive\n"
    if args.allocsan_report and not args.allocsan:
        return "--allocsan-report requires --allocsan\n"
    for flag in chosen:
        for field, violated, message in _CONSTRAINTS:
            reason = getattr(CHECKS[flag], field)
            if reason and violated(args):
                return message % (flag, reason)
    return None
