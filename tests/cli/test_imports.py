"""Imports follow use: numpy and networkx are loaded by the call that
computes with them — a permutation's construction, ``kip_aggregate``, the
graph functions — never by ``import repro...`` (docs/performance.md,
"Imports follow use").  This pytest process imported both long ago, so
every check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: What every script starts with: ``chain`` holds the smoke campaign's
#: files, ``out`` is this test's own directory, ``cli`` runs one command.
PRELUDE = """\
import io, json, os, sys
from repro.cli.main import main
chain, out = sys.argv[1:]
def path(name):
    return os.path.join(chain, name)
def scratch(name):
    return os.path.join(out, name)
def cli(*argv, code=0):
    sink = io.StringIO()
    assert main(list(argv), sink) == code, sink.getvalue()
    return sink.getvalue()
"""

#: ...and ends with: the third-party and lint modules it left loaded.
EPILOGUE = """
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if module is not None
    and (name.split('.')[0] in ('numpy', 'networkx') or name.startswith('repro.lint'))
)))
"""

PROBE = (
    "'probe', '--world', path('world.json'), '--vantage', 'EU-NET', "
    "'--targets', path('caida.targets'), '--pps', '5000'"
)


def fresh(body, chain, out, without=()):
    """Run ``body`` between PRELUDE and EPILOGUE in a new interpreter in
    which the packages named in ``without`` cannot be imported."""
    blocked = "import sys\n" + "".join(
        "sys.modules[%r] = None\n" % name for name in without
    )
    return subprocess.run(
        [sys.executable, "-c", blocked + PRELUDE + body + EPILOGUE, str(chain), str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The CI smoke campaign, run with numpy to hand: world, caida seeds,
    z64 targets, the walk (with its manifest) and the fill run."""
    root = tmp_path_factory.mktemp("chain")
    body = (
        "cli('world', '--edge', '30', '--cpe', '150', '--seed', '5',"
        " '--out', path('world.json'))\n"
        "cli('seeds', '--world', path('world.json'), '--source', 'caida',"
        " '--out', path('caida.seeds'))\n"
        "cli('targets', '--seeds', path('caida.seeds'), '--level', '64',"
        " '--out', path('caida.targets'))\n"
        "cli(%s, '--out', path('walk.yrp6'), '--metrics', path('manifest.json'))\n"
        "cli(%s, '--fill', '--out', path('fill.yrp6'))\n" % (PROBE, PROBE)
    )
    done = fresh(body, root, root)
    assert done.returncode == 0, done.stderr
    return root


#: case -> (script body, the third-party packages it must leave loaded).
CASES = {
    "import": ("", set()),
    "world": (
        "cli('world', '--edge', '6', '--cpe', '10', '--out', scratch('w.json'))",
        set(),
    ),
    "seeds-dnsdb": (
        "cli('seeds', '--world', path('world.json'), '--source', 'dnsdb',"
        " '--out', scratch('dnsdb.seeds'))",
        set(),
    ),
    "targets": (
        "cli('targets', '--seeds', path('caida.seeds'), '--level', '64',"
        " '--out', scratch('t.targets'))",
        set(),
    ),
    "stats": ("cli('stats', path('manifest.json'), '--top', '3')", set()),
    "analyze": (
        "cli('analyze', '--results', path('walk.yrp6'), '--world', path('world.json'),"
        " '--subnets')",
        set(),
    ),
    # Sequential and Doubletree never build a permutation; called as the
    # ledger's baselines-burst calls them (the CLI's `probe` would run
    # validate_campaign, which constructs a schedule for every prober).
    "baselines": (
        "from repro.cli.worldcfg import load_config\n"
        "from repro.netsim import Internet, build_internet\n"
        "from repro.obs import NULL_PROFILER\n"
        "from repro.prober import run_doubletree, run_sequential\n"
        "with open(path('world.json')) as source:\n"
        "    built = build_internet(load_config(source))\n"
        "subnets = list(built.truth.subnets.values())[:20]\n"
        "targets = tuple(subnet.prefix.base | 1 for subnet in subnets)\n"
        "for runner in (run_sequential, run_doubletree):\n"
        "    result = runner(Internet(built), 'EU-NET', targets,"
        " profiler=NULL_PROFILER, pps=20000.0)\n"
        "    assert result.sent and result.records\n",
        set(),
    ),
    "seeds-cdn-k32": (
        "cli('seeds', '--world', path('world.json'), '--source', 'cdn-k32',"
        " '--out', scratch('cdn.seeds'))",
        {"numpy"},
    ),
    "probe": ("cli(%s, '--out', scratch('r.yrp6'))" % PROBE, {"numpy"}),
    # Loaded at construction, not on the first block: validate_spec builds
    # the widest shard's schedule in the parent, so numpy is there before
    # any shard process exists and the forked ones inherit it.
    "run-parallel-2": (
        "from repro.addrs import address\n"
        "from repro.cli.worldcfg import load_config\n"
        "from repro.netsim import decoupled_dynamics\n"
        "from repro.prober import CampaignSpec, parallel, run_parallel, supervise\n"
        "with open(path('world.json')) as source:\n"
        "    world = decoupled_dynamics(load_config(source))\n"
        "with open(path('caida.targets')) as source:\n"
        "    targets = tuple(address.parse(line.strip()) for line in source)\n"
        "seen = []\n"
        "real_validate, real_start = parallel.validate_spec, supervise._start\n"
        "def validate(*args):\n"
        "    seen.append(('validate_spec called', 'numpy' in sys.modules))\n"
        "    real_validate(*args)\n"
        "    seen.append(('validate_spec returned', 'numpy' in sys.modules))\n"
        "def start(*args):\n"
        "    seen.append(('_start reached', 'numpy' in sys.modules))\n"
        "    return real_start(*args)\n"
        "parallel.validate_spec, supervise._start = validate, start\n"
        "spec = CampaignSpec(world, 'EU-NET', targets, pps=5000.0)\n"
        "run_parallel(spec, shards=2, processes=2, start_method='fork')\n"
        "assert seen == [('validate_spec called', False),"
        " ('validate_spec returned', True)] + [('_start reached', True)] * 2, seen\n",
        {"numpy"},
    ),
    "analyze-graph": (
        "text = cli('analyze', '--results', path('walk.yrp6'), '--graph')\n"
        "assert 'interface graph:' in text, text\n",
        {"networkx"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_third_party_imports_follow_use(case, chain, tmp_path):
    body, expected = CASES[case]
    done = fresh(body, chain, tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert {name for name in loaded if "." not in name} == expected
    if case == "import":
        # The CLI reaches DetSan through the repro.lint package; the rule
        # table, the index and the whole-program half must not ride along
        # on every repro-sim command.
        lint = {name for name in loaded if name.startswith("repro.lint")}
        assert lint == {"repro.lint", "repro.lint.detsan"}


def test_scalar_fallback_writes_the_same_bytes(chain, tmp_path):
    """Without numpy the smoke campaign — pure walk and ``--fill`` — is
    ``cmp``-identical to the numpy run's, a block that would have taken
    the vector path equals the scalar reference, and nothing tried to
    load numpy behind the permutation's back."""
    body = (
        "cli(%s, '--out', scratch('walk.yrp6'))\n"
        "cli(%s, '--fill', '--out', scratch('fill.yrp6'))\n"
        "from repro.prober.permutation import KeyedPermutation\n"
        "perm = KeyedPermutation(10_000, 7)\n"
        "assert perm.images(range(64)) == perm.images_scalar(range(64))\n"
        % (PROBE, PROBE)
    )
    done = fresh(body, chain, tmp_path, without=("numpy",))
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert [name for name in loaded if name.split(".")[0] == "numpy"] == []
    for name in ("walk.yrp6", "fill.yrp6"):
        assert (tmp_path / name).read_bytes() == (chain / name).read_bytes(), name


@pytest.mark.parametrize(
    "package, command, arguments",
    [
        ("numpy", "seeds", "'--world', path('world.json'), '--source', 'cdn-k32',"
                           " '--out', scratch('cdn.seeds')"),
        ("networkx", "analyze", "'--results', path('walk.yrp6'), '--graph'"),
    ],
    ids=["numpy", "networkx"],
)
def test_missing_package_is_one_line_and_exit_2(package, command, arguments, chain, tmp_path):
    body = "print(cli(%r, %s, code=2), end='')\n" % (command, arguments)
    done = fresh(body, chain, tmp_path, without=(package,))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    said = done.stdout.splitlines()[-2]  # the last line is EPILOGUE's
    assert said == "repro-sim: %s: needs the %r package" % (command, package)


def test_any_other_missing_module_still_propagates(chain, tmp_path):
    body = "cli('analyze', '--results', path('walk.yrp6'))\n"
    done = fresh(body, chain, tmp_path, without=("repro.analysis",))
    assert done.returncode == 1
    assert "ModuleNotFoundError" in done.stderr
