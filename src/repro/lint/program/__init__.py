"""``repro.lint.program`` — the whole-program half of the rule table.

The per-file rules in :mod:`repro.lint.checkers` judge one file's scope
index at a time; the rules here judge the program.  Each file's index is
distilled into facts (:mod:`.facts`, with the perf-site extractor in
:mod:`.perf`), the facts are
joined into module-import and function-call graphs (:mod:`.graph`, which
also owns the one forward reachability and the one witness-chain
builder), and the interprocedural rules run on the result:

* **DET101** — transitive impurity: nothing reachable from the engine /
  prober / parallel-runner entry points may reach a DET001-banned
  source through any call chain (:mod:`.det101`);
* **RNG101** — RNG provenance: every ``random.Random`` seed must trace
  to spec/world seed material (:mod:`.rng101`);
* **PERF101** — no per-iteration allocation in hot regions (functions
  reachable from a ``# repro-lint: hot-loop`` root);
* **PERF102** — no superlinear accumulation (``+=`` concatenation,
  ``insert(0)``, list membership, in-loop sorts) in hot regions;
* **PERF103** — no numpy↔Python scalar churn (``.item()`` loops,
  element-wise indexing, ``np.append``) in hot regions (all three are
  rows of :data:`.perf.RULES`).

The table itself, the driver loop and the entry points live in
:mod:`repro.lint.rules`.
"""
