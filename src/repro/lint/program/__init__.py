"""``repro.lint.program`` — whole-program determinism analysis.

The per-file checkers in :mod:`repro.lint.checkers` see one AST at a
time; this layer parses the whole tree once, distills each file into
cacheable facts (:mod:`.facts`), builds module-import and function-call
graphs (:mod:`.graph`), and runs the interprocedural rules on them:

* **DET101** — transitive impurity: nothing reachable from the engine /
  prober / parallel-runner entry points may reach a DET001-banned
  source through any call chain (:mod:`.det101`);
* **RNG101** — RNG provenance: every ``random.Random`` seed must trace
  to spec/world seed material, and no RNG object may cross the
  ``CampaignSpec`` worker boundary (:mod:`.rng101`);
* **OBS101** — telemetry observe-only: no dataflow from ``repro.obs``
  readbacks into ``netsim``/``prober`` state (:mod:`.obs101`);
* **MUT101** — shared-world shard safety: code reachable from the
  parallel shard workers may only write state registered via
  ``@run_state(...)`` (:mod:`.mut101`);
* **MUT102** — rewind completeness: the RunState registry and
  ``Internet.fresh_run_state`` must cover each other exactly
  (:mod:`.mut102`);
* **MUT103** — pickle-boundary immutability: no writes through the
  ``CampaignSpec`` handed to workers (:mod:`.mut103`);
* **PERF101** — no per-iteration allocation in hot regions (functions
  reachable from a ``# repro-lint: hot-loop`` root);
* **PERF102** — no superlinear accumulation (``+=`` concatenation,
  ``insert(0)``, list membership, in-loop sorts) in hot regions;
* **PERF103** — no numpy↔Python scalar churn (``.item()`` loops,
  element-wise indexing, ``np.append``) in hot regions (all three are
  rows of :data:`.perf.RULES`).

**Adding a rule is one row** in :data:`RULES`: any object — usually a
module — with ``RULE`` (the id), ``DESCRIPTION`` (one line, shown by
``--list-checkers``), ``check(program) -> List[Violation]`` and,
optionally, ``in_scope(module) -> bool`` when the rule only judges some
modules (LNT001 then counts it as having run only there).
``PROGRAM_RULES``, :func:`run_rules`, ``--select`` validation and the
facts-cache key (a digest of this package's source, see :mod:`.cache`)
all follow from the row; there is no version constant to bump.

Entry points: :func:`analyze` for an in-memory file set (the CLI driver
shares its per-file :class:`~repro.lint.core.Suppressions` objects so
suppression *usage* feeds LNT001), and :func:`lint_program_paths` as the
standalone convenience used by tests and tooling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import (
    Suppressions,
    Violation,
    _module_path,
    iter_python_files,
    violation_sort_key,
)
from . import det101, mut101, mut102, mut103, obs101, perf, rng101
from .cache import FactsCache
from .facts import FileFacts, extract_facts  # noqa: F401  (re-export)
from .graph import (  # noqa: F401  (re-export)
    DEFAULT_ROOTS,
    Program,
    ProgramGraph,
    SourceFile,
    build_graph,
)
from .perf import DEFAULT_HOT_ROOTS  # noqa: F401  (re-export)

#: The whole-program rules, in the order they run (see the module
#: docstring for what a row must expose).
RULES: List[Any] = [det101, rng101, obs101, mut101, mut102, mut103, *perf.RULES]

#: rule id -> one-line description, mirrored into ``--list-checkers``.
PROGRAM_RULES: Dict[str, str] = {rule.RULE: rule.DESCRIPTION for rule in RULES}


def analyze(
    files: Sequence[SourceFile], cache: Optional[FactsCache] = None
) -> Program:
    facts: Dict[str, FileFacts] = {}
    for item in files:
        if cache is not None:
            facts[item.path] = cache.facts_for(item.path, item.source, item.module)
        else:
            facts[item.path] = extract_facts(item.source, item.module)
    graph = build_graph(sorted(facts.items()))
    return Program(
        files=list(files),
        facts=facts,
        graph=graph,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )


def run_rules(
    program: Program, select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run the selected program rules, filtered through each file's
    suppressions (usage is recorded on the shared objects, so LNT001
    sees program-rule suppressions as used)."""
    suppressions = {item.path: item.suppressions for item in program.files}
    raw: List[Violation] = []
    for path in suppressions:
        program.ran_rules.setdefault(path, set())
    for rule in RULES:
        if select is not None and rule.RULE not in select:
            continue
        raw.extend(rule.check(program))
        in_scope = getattr(rule, "in_scope", None)
        for path in suppressions:
            if in_scope is None or in_scope(program.facts[path].module):
                program.ran_rules[path].add(rule.RULE)
    kept: List[Violation] = []
    for violation in raw:
        supp = suppressions.get(violation.path)
        if supp is not None and supp.is_disabled(violation.rule, violation.line):
            continue
        kept.append(violation)
    kept.sort(key=violation_sort_key)
    return kept


def load_sources(paths: Sequence[str]) -> List[SourceFile]:
    files: List[SourceFile] = []
    for file_path in iter_python_files(list(paths)):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        files.append(
            SourceFile(
                path=file_path,
                module=_module_path(file_path),
                source=source,
                suppressions=Suppressions(source),
            )
        )
    return files


def lint_program_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    cache_path: Optional[str] = None,
) -> Tuple[List[Violation], Program]:
    """Standalone whole-program lint of ``paths`` (files/directories)."""
    cache = FactsCache(cache_path) if cache_path is not None else None
    program = analyze(load_sources(paths), cache=cache)
    violations = run_rules(program, select=select)
    if cache is not None:
        cache.save()
    return violations, program
