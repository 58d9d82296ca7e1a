"""The mutation table in docs/determinism.md, as tests: its static
column, and the runtime verdict of the budgets it keeps.

Each row plants one fault in the live hot path — a one- or two-line
edit to one or two files — and lints the whole tree the way
``repro-lint src/`` does.  The expected findings are the table's
"Static findings" column: DET001 catches the direct impure reads, and
the ``id(self)`` seed, the leaks, the extra call and the indirect clock
read are left to the runtime gates.  A change that blinds a rule to its row
fails here; so does a hot-path edit that moves a row's anchor.

The budget rows of ``tests/prober/test_records.py`` are run on the
mutants only they catch, planted live: a kept leak must fail the
retained-bytes row of every loop it reaches, the extra call every
call-budget row.  So is the observer row: an observer that draws from
the world's stream must make a metered walk's ``.yrp6`` differ from a
bare one's.
"""

import ast
import copy
import dataclasses
import importlib
import os
import re
import types

import pytest

from repro.lint.core import read_source
from repro.lint.rules import RULES, lint, load_sources
from repro.netsim import Internet, build_internet
from repro.obs import MetricsRegistry
from repro.prober import dumps
from tests.prober import test_records as budgets

HERE = os.path.dirname(__file__)
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")

YARRP = "repro/prober/yarrp6.py"
NET = "repro/netsim/internet.py"
PERM = "repro/prober/permutation.py"
RECORDS = "repro/prober/records.py"
CAMPAIGN = "repro/prober/campaign.py"
OUTPUT = "repro/prober/output.py"

ENCODE = "                encode_into(buffer, target, ttl, when & 0xFFFFFFFF)\n"
COUNT = "        self.stats.probes += 1\n"
BISECT = "from bisect import bisect_left\n"
APPEND = "        self.records.append(record)\n"

#: (row label as in the table, edits as (file, anchor, replacement),
#: expected findings as {rule: count}).
MUTANTS = [
    ("Control", [], {}),
    (
        "M4 `time.time()`",
        [
            (NET, "import random\n", "import random\nimport time\n"),
            (NET, COUNT, COUNT + "        time.time()\n"),
        ],
        {"DET001": 1},
    ),
    (
        "M5 `random.random()`",
        [
            (YARRP, BISECT, "import random\n" + BISECT),
            (YARRP, ENCODE, ENCODE + "                random.random()\n"),
        ],
        {"DET001": 1},
    ),
    (
        "M5b `id(self)` seed",
        [(NET, "random.Random(self.config.seed ^ 0x5EED)", "random.Random(id(self))")],
        {},
    ),
    ("L1 `bytes(buffer)` thrown away", [(YARRP, ENCODE, ENCODE + "                bytes(buffer)\n")], {}),
    (
        "L1 `bytes(buffer)` kept",
        [
            (YARRP, "        self._fetched = 0\n", "        self._fetched = 0\n        self.kept = []\n"),
            (YARRP, ENCODE, ENCODE + "                self.kept.append(bytes(buffer))\n"),
        ],
        {},
    ),
    ("L2 dict thrown away", [(RECORDS, APPEND, APPEND + "        dict(hop=hop)\n")], {}),
    (
        "L2 dict kept",
        [
            (
                RECORDS,
                "        self.records: List[ProbeRecord] = []\n",
                "        self.records: List[ProbeRecord] = []\n        self.kept = []\n",
            ),
            (RECORDS, APPEND, APPEND + "        self.kept.append(dict(hop=hop))\n"),
        ],
        {},
    ),
    (
        "L3 `list(times)`",
        [
            (
                CAMPAIGN,
                "                times = range(start, start + batch * interval, interval)\n",
                "                times = range(start, start + batch * interval, interval)\n"
                "                list(times)\n",
            )
        ],
        {},
    ),
    (
        "C1 extra call",
        [(NET, "        hop_limit = hop_limit or 1\n", "        path.length\n        hop_limit = hop_limit or 1\n")],
        {},
    ),
    (
        "M6 indirect clock read",
        [(NET, COUNT, COUNT + "        getattr(__import__('ti' + 'me'), 'perf_counter')()\n")],
        {},
    ),
    (
        "S1 campaign counter in the key",
        [
            (PERM, "import hashlib\n", "import hashlib\nimport itertools\n"),
            (PERM, "_VECTOR_MIN = 16\n", "_VECTOR_MIN = 16\n\n_CAMPAIGNS = itertools.count()\n"),
            (
                PERM,
                "        self._perm = KeyedPermutation(space, key)\n",
                "        self._perm = KeyedPermutation(space, key ^ next(_CAMPAIGNS))\n",
            ),
        ],
        {},
    ),
    (
        "O1 observer draws",
        [
            (
                NET,
                '        allowed_series = registry.series("ratelimit.allowed")\n',
                '        self._rng.random()\n        allowed_series = registry.series("ratelimit.allowed")\n',
            )
        ],
        {},
    ),
    (
        "H1 `key=hash` header order",
        [
            (
                OUTPUT,
                "    for key, value in (metadata or {}).items():\n",
                "    for key, value in sorted((metadata or {}).items(), key=hash):\n",
            )
        ],
        {},
    ),
]

#: (row label, budget, the loops whose row of that budget it must fail);
#: ``inert`` is the observer row, a metered run against a bare one.
RUNTIME = [
    ("L1 `bytes(buffer)` kept", "bytes", ("walk", "fill")),
    ("L2 dict kept", "bytes", ("walk", "fill", "per-event")),
    ("C1 extra call", "calls", ("walk", "fill", "per-event")),
    ("O1 observer draws", "inert", ("walk",)),
]


@pytest.fixture(scope="module")
def live_files():
    return load_sources([SRC])


def fresh(file):
    """The parsed record without the state one lint run leaves on it."""
    return dataclasses.replace(
        file, ran_rules=set(), suppressions=copy.deepcopy(file.suppressions)
    )


def plant(files, edits):
    """Apply ``edits`` to copies of ``files``; return the new records and,
    per mutated path, the lines the edits added."""
    by_suffix = {file.path.replace(os.sep, "/"): file for file in files}
    texts, added = {}, {}
    for suffix, anchor, replacement in edits:
        (path,) = [p for p in by_suffix if p.endswith("/src/" + suffix)]
        text = texts.get(path, by_suffix[path].source)
        assert text.count(anchor) == 1, (suffix, anchor)
        texts[path] = text.replace(anchor, replacement)
        added.setdefault(path, set()).update(
            set(replacement.splitlines()) - set(anchor.splitlines())
        )
    mutated = [
        read_source(texts[path], file.path, file.module) if path in texts else fresh(file)
        for path, file in by_suffix.items()
    ]
    return mutated, texts, added


@pytest.mark.parametrize(
    "label, edits, expected",
    MUTANTS,
    ids=[re.sub(r"\W+", "-", row[0]).strip("-") for row in MUTANTS],
)
def test_mutant_is_caught_by_its_static_rule(live_files, label, edits, expected):
    files, texts, added = plant(live_files, edits)
    violations = lint(files, RULES)
    counts = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    assert counts == expected, [v.format() for v in violations]
    for violation in violations:
        # Each finding lands on a line the mutant planted.
        path = violation.path.replace(os.sep, "/")
        line = texts[path].splitlines()[violation.line - 1]
        assert line in added[path], violation.format()


def test_table_in_the_docs_matches_the_mutants():
    with open(os.path.join(ROOT, "docs", "determinism.md"), encoding="utf-8") as handle:
        doc = handle.read()
    header = "| Mutant | Static findings |"
    table = doc[doc.index(header):].split("\n\n", 1)[0].splitlines()[2:]
    documented = {}
    for row in table:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        documented[cells[0]] = cells[1]
    expected = {
        label: " ".join(sorted(rules)) or "0" for label, _, rules in MUTANTS
    }
    assert documented == expected


def _functions(tree):
    """``{path: node}`` for each module-level function and method."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[(node.name,)] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[(node.name, item.name)] = item
    return found


def plant_live(monkeypatch, edits):
    """Apply ``edits`` to the running code for the rest of the test: each
    function or method they change runs its mutated code object, with the
    module's globals and its own closure."""
    sources, texts = {}, {}
    for suffix, anchor, replacement in edits:
        if suffix not in sources:
            with open(os.path.join(SRC, suffix), encoding="utf-8") as handle:
                sources[suffix] = texts[suffix] = handle.read()
        assert texts[suffix].count(anchor) == 1, (suffix, anchor)
        texts[suffix] = texts[suffix].replace(anchor, replacement)
    for suffix, text in texts.items():
        module = importlib.import_module(suffix[: -len(".py")].replace("/", "."))
        live = _functions(ast.parse(sources[suffix]))
        code = compile(text, os.path.join(SRC, suffix), "exec")
        for names, node in _functions(ast.parse(text)).items():
            if ast.dump(node) == ast.dump(live[names]):
                continue
            mutated, function = code, module
            for name in names:
                (mutated,) = [
                    const for const in mutated.co_consts
                    if isinstance(const, types.CodeType) and const.co_name == name
                ]
                function = vars(function)[name]
            monkeypatch.setattr(function, "__code__", mutated)


@pytest.fixture(scope="module")
def smoke_built():
    return build_internet(budgets.SMOKE)


@pytest.mark.parametrize(
    "label, budget, loop",
    [(label, budget, loop) for label, budget, loops in RUNTIME for loop in loops],
    ids=[
        "%s-%s-%s" % (re.sub(r"\W+", "-", label).strip("-"), budget, loop)
        for label, budget, loops in RUNTIME
        for loop in loops
    ],
)
def test_mutant_fails_the_budget_rows_it_reaches(monkeypatch, smoke_built, label, budget, loop):
    (edits,) = [row[1] for row in MUTANTS if row[0] == label]
    plant_live(monkeypatch, edits)
    run = budgets.LOOPS[loop]
    if budget == "inert":
        targets = budgets._targets(smoke_built)
        bare = run(Internet(smoke_built), targets)
        metered = run(Internet(smoke_built), targets, metrics=MetricsRegistry())
        assert dumps(metered) != dumps(bare)
    elif budget == "bytes":
        measured = budgets.TestRetainedBytes.bytes_per_probe(smoke_built, run)
        assert measured > budgets.TestRetainedBytes.BYTES_PER_PROBE[loop]
    else:
        measured = budgets.TestCallBudget.calls_per_probe(smoke_built, run)
        assert measured > {
            "walk": budgets.TestCallBudget.CALLS_PER_PROBE,
            "fill": budgets.TestCallBudget.FILL_CALLS_PER_PROBE,
            "per-event": budgets.TestCallBudget.PER_EVENT_CALLS_PER_PROBE,
        }[loop]
