"""The static column of the mutation table in docs/determinism.md, as a
test.

Each row plants one fault in the live hot path — a one- or two-line
edit to one or two files — and lints the whole tree the way
``repro-lint src/`` does.  The expected findings are the table's
"Static findings" column: PERF101-103 each catch a class of fault no
runtime gate sees, DET001 catches the impure reads, and the ``id(self)``
seed is left to the runtime gates.  A change that blinds a rule to its
row fails here; so does a hot-path edit that moves a row's anchor.
"""

import copy
import dataclasses
import os
import re

import pytest

from repro.lint.core import read_source
from repro.lint.rules import RULES, lint, load_sources

HERE = os.path.dirname(__file__)
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")

YARRP = "repro/prober/yarrp6.py"
NET = "repro/netsim/internet.py"
PERM = "repro/prober/permutation.py"

ENCODE = "                encode_into(buffer, target, ttl, when & 0xFFFFFFFF)\n"
SEND = "                index += 1\n                sent += 1\n"
LOOP = "        while position < count and not ended:\n"
COUNT = "        self.stats.probes += 1\n"
BISECT = "from bisect import bisect_left\n"

#: (row label as in the table, edits as (file, anchor, replacement),
#: expected findings as {rule: count}).
MUTANTS = [
    ("Control", [], {}),
    (
        "M1 list",
        [(YARRP, ENCODE, ENCODE + "                scratch = [target, ttl]\n")],
        {"PERF101": 1},
    ),
    (
        "M1 comprehension",
        [(YARRP, ENCODE, ENCODE + "                scratch = [x for x in (target, ttl)]\n")],
        {"PERF101": 1},
    ),
    (
        "M1 `ProbeRecord`",
        [
            (
                YARRP,
                ENCODE,
                ENCODE
                + '                scratch = ProbeRecord(target, ttl, 0, 0, 0, "", 0, when)\n',
            )
        ],
        {"PERF101": 1},
    ),
    (
        "M1 in `Internet.probe`",
        [(NET, COUNT, COUNT + "        scratch = [data, now]\n")],
        {"PERF101": 1},
    ),
    (
        'M2 `b"" +=`',
        [
            (YARRP, LOOP, '        trail = b""\n' + LOOP),
            (YARRP, SEND, SEND + "                trail += packet\n"),
        ],
        {"PERF102": 1},
    ),
    (
        "M2 membership",
        [
            (YARRP, LOOP, "        seen = []\n" + LOOP),
            (
                YARRP,
                SEND,
                SEND + "                if ttl in seen:\n                    continue\n",
            ),
        ],
        {"PERF102": 1},
    ),
    (
        "M3 `.item()`",
        [
            (
                PERM,
                "        result: List[int] = values.tolist()\n",
                "        result: List[int] = []\n"
                "        for lane in range(len(values)):\n"
                "            result.append(values[lane].item())\n",
            )
        ],
        {"PERF103": 1},
    ),
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
    violations, _ = lint(files, RULES)
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
