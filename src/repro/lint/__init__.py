"""``repro.lint`` — determinism & protocol-invariant static analysis.

The simulation's headline guarantee — ``run_parallel(spec, N)`` is
bit-identical to the single-process campaign for any ``N`` — rests on
properties no unit test can exhaustively defend: no wall-clock reads in
hot paths, no unseeded randomness, no iteration order leaking out of an
unordered container into results, no unpicklable field sneaking into a
worker-boundary spec.  This package checks those properties at the AST
level so violations fail CI instead of diverging a 4-worker campaign at
runtime.

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
what a static rule cannot see at runtime the two sanitizers check
(:mod:`.detsan`, :mod:`.allocsan`).

Use the CLI (``repro-lint src/`` or ``python -m repro.lint.cli src/``)
or the library entry points below.
"""

__all__ = ["Violation", "lint_file", "lint_paths", "lint_source"]


def __getattr__(name: str):
    # PEP 562: ``repro-sim`` imports the sanitizers through this package
    # on every start-up; the static-analysis half loads on first use.
    if name in __all__:
        from . import rules

        return getattr(rules, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
