"""Hash-randomization regression: campaign dumps must be byte-identical
across interpreter processes started with different PYTHONHASHSEED
values (no iteration order anywhere may depend on ``hash(str)``).

Each process writes two dumps: the serial ``probe`` command's over the
world file, and ``run_parallel``'s at two shards over the same world
decoupled (the only world it shards), so the merge is covered too."""

import os
import subprocess
import sys

from repro.cli.main import main

HERE = os.path.dirname(__file__)
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

#: argv: world file, targets file, output prefix.
SCRIPT = """
import sys
from repro.addrs import address
from repro.cli.main import main
from repro.cli.worldcfg import load_config
from repro.netsim import decoupled_dynamics
from repro.prober import CampaignSpec, run_parallel
from repro.prober.output import save_campaign
world, targets, out = sys.argv[1:]
assert main(["probe", "--world", world, "--targets", targets, "--out", out + ".serial"]) == 0
with open(world) as source:
    config = decoupled_dynamics(load_config(source))
with open(targets) as source:
    addresses = tuple(address.parse(line.strip()) for line in source if line.strip())
spec = CampaignSpec(config, "US-EDU-1", addresses)
save_campaign(out + ".sharded", run_parallel(spec, shards=2, processes=2))
"""


def probe_under_hash_seed(base, world, targets, hash_seed):
    out = str(base / ("run-hashseed-%s.yrp6" % hash_seed))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, world, targets, out],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    dumps = []
    for kind in ("serial", "sharded"):
        with open("%s.%s" % (out, kind), "rb") as handle:
            dumps.append(handle.read())
    return dumps


def test_dump_identical_across_hash_seeds(tmp_path):
    world = str(tmp_path / "world.json")
    seeds = str(tmp_path / "seeds.jsonl")
    targets = str(tmp_path / "targets.jsonl")
    assert main(["world", "--seed", "5", "--edge", "10", "--cpe", "30",
                 "--out", world]) == 0
    assert main(["seeds", "--world", world, "--source", "caida",
                 "--out", seeds]) == 0
    assert main(["targets", "--seeds", seeds, "--out", targets]) == 0
    first = probe_under_hash_seed(tmp_path, world, targets, "1")
    second = probe_under_hash_seed(tmp_path, world, targets, "2")
    assert all(first)
    assert first == second
