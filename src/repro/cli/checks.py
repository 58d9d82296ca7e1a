"""The ``probe --detsan`` check (documented in docs/observability.md)."""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from ..lint.detsan import DetSan
from ..prober.output import dumps


def check_detsan(run_once: Callable[[], Any]) -> Tuple[Any, List[str], str]:
    """Dynamic cross-check of the static determinism rules: run the
    campaign under the sanitizer (record mode — finish the run, collect
    every tripwire hit), then rerun clean and demand a byte-identical
    dump.

    Returns ``(result, findings, verdict)``: the clean rerun's campaign,
    one line per finding (any finding makes ``probe`` exit 1), and the
    closing line — ``clean (...)``, or the count of findings."""
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
