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
LNT001    an unused or unknown ``# repro-lint: disable=`` suppression
========  ============================================================

What a static rule cannot see the DetSan sanitizer (:mod:`.detsan`)
checks at runtime; the hot path's cost is held by the Tier-1 budget rows
(``TestCallBudget``, ``TestRetainedBytes``), not by a lint rule.

Use the CLI (``repro-lint src/`` or ``python -m repro.lint.cli src/``)
or the library entry points below.
"""

from .rules import Violation, lint_file, lint_paths, lint_source

__all__ = ["Violation", "lint_file", "lint_paths", "lint_source"]
