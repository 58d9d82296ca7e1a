"""``repro.lint`` — determinism & protocol-invariant static analysis.

A campaign is a pure function of its inputs — the same world, spec and
seed write the same ``.yrp6`` bytes in any process, at any hash seed, on
either campaign loop.  That rests on properties no unit test can
exhaustively defend: no wall-clock reads in hot paths, no unseeded
randomness, no iteration order leaking out of an unordered container
into results, no unpicklable field sneaking into a worker-boundary spec.
This package checks those properties at the AST level, so a violation
fails the lint run instead of moving a byte of some later campaign.

Rules (see ``docs/determinism.md`` for the full contract):

========  ============================================================
rule      what it catches
========  ============================================================
DET001    nondeterminism sources: ``time.time``, ``datetime.now``,
          module-level ``random.*``, ``os.urandom``, ``uuid.uuid4``,
          unseeded ``random.Random()``, builtin ``hash()``
DET002    iteration over ``set``/``frozenset`` values in order-
          sensitive packages (``prober``, ``netsim``, ``analysis``)
          outside ``sorted(...)`` or a ``# lint: ordered`` annotation
DET003    worker-boundary dataclasses (``CampaignSpec`` &c.) carrying
          field types outside the declared picklable set
PERF101   per-iteration allocation in the hot region (functions
          reachable from a ``# repro-lint: hot-loop`` root)
PERF102   superlinear accumulation in the hot region
PERF103   numpy<->Python scalar churn in the hot region
LNT001    an unused or unknown ``# repro-lint: disable=`` suppression
========  ============================================================

The PERF rows are the whole-program half (:mod:`repro.lint.program`);
what a static rule cannot see at runtime the DetSan sanitizer
(:mod:`.detsan`) and the Tier-1 budget rows (``TestCallBudget``,
``TestRetainedBytes``) check.

Use the CLI (``repro-lint src/`` or ``python -m repro.lint.cli src/``)
or the library entry points below.
"""

from .rules import Violation, lint_file, lint_paths, lint_source

__all__ = ["Violation", "lint_file", "lint_paths", "lint_source"]
