"""``repro.lint.program`` — the whole-program half of the rule table.

The per-file rules in :mod:`repro.lint.checkers` judge one file's scope
index at a time; the rules here judge the program.  Each file's index is
distilled into facts (:mod:`.facts`, with the perf-site extractor in
:mod:`.perf`), the facts are joined into a function-call graph
(:mod:`.graph`, which also owns the one forward reachability and the
one witness-chain builder), and the three hot-path rules run on the
functions reachable from a ``# repro-lint: hot-loop`` root:

* **PERF101** — no per-iteration allocation;
* **PERF102** — no superlinear accumulation (``+=`` concatenation,
  ``insert(0)``, list membership, in-loop sorts);
* **PERF103** — no numpy↔Python scalar churn (``.item()`` loops,
  element-wise indexing, ``np.append``).

All three are rows of :data:`.perf.RULES`.  The table itself, the driver
loop and the entry points live in :mod:`repro.lint.rules`.
"""
