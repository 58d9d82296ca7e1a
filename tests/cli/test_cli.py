"""End-to-end tests for the repro-sim CLI workflow."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli.main import main
from repro.cli.worldcfg import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.netsim import InternetConfig, VantageConfig


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def world_file(tmp_path):
    path = str(tmp_path / "world.json")
    code, text = run(["world", "--edge", "30", "--cpe", "150", "--seed", "5", "--out", path])
    assert code == 0
    return path


class TestWorldConfig:
    def test_round_trip(self):
        config = InternetConfig(
            n_edge=10,
            cpe_customers_per_isp=50,
            vantages=(VantageConfig("X", premise_hops=4, aggressive_hops=(2,)),),
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored == config

    def test_json_round_trip(self, tmp_path):
        config = InternetConfig(n_edge=7)
        path = tmp_path / "cfg.json"
        with open(path, "w") as sink:
            save_config(sink, config)
        with open(path) as source:
            restored = load_config(source)
        assert restored == config
        # The file is plain JSON.
        assert json.loads(path.read_text())["n_edge"] == 7

    @pytest.mark.parametrize(
        "document, reason",
        [
            # Was read as the *default world*: 143 caida items, exit 0.
            ("[]", "world must be a JSON object, not []"),
            ("null", "world must be a JSON object, not null"),
            # Each of these was a TypeError / KeyError traceback.
            ('{"egde_count": 3}', "unknown key 'egde_count' in world (valid keys: seed, "),
            ('{"n_edge": "x"}', 'world.n_edge must be int, not "x"'),
            ('{"n_edge": true}', "world.n_edge must be int, not true"),
            ('{"response_loss": "0"}', 'world.response_loss must be float, not "0"'),
            ('{"dist_per_edge": ["a", 2]}', 'world.dist_per_edge[0] must be int, not "a"'),
            ('{"vantages": 3}', "world.vantages must be list, not 3"),
            (
                '{"vantages": [{"premise_hops": 2}]}',
                "world.vantages[0] must be an object with a string 'name'",
            ),
            (
                '{"vantages": [{"name": "X", "hops": 2}]}',
                "unknown key 'hops' in world.vantages[0] (valid keys: name, premise_hops, ",
            ),
            # A syntax error used to print no file name.
            ('{"n_edge": 3,', "Expecting property name enclosed in double quotes"),
            # Well-typed, but a world the builder would mis-draw from.  Were:
            # "empty range for randrange() (4, 2, -2)"; "Sample larger than
            # population or is negative"; an IndexError traceback, exit 1;
            # and two worlds that built (as n_edge=0 / n_cpe_isps=0).
            ('{"hosts_per_leaf": [4, 1]}', "world.hosts_per_leaf must be ints 0 <= low <= high"),
            ('{"n_tier2": 0}', "world.n_tier2 must be at least 2"),
            ('{"cpe_www_fractions": []}', "world.cpe_www_fractions must not be empty"),
            ('{"n_edge": -3}', "world.n_edge must be an int >= 0, not -3"),
            ('{"n_cpe_isps": -1}', "world.n_cpe_isps must be an int >= 0, not -1"),
            (
                '{"edge_limit_rate": [0, 500]}',
                "world.edge_limit_rate / edge_limit_burst: rate must be positive: 0",
            ),
            # Was: built, without the aggressive hop (no item type to check
            # against: the field's default is the empty tuple).
            (
                '{"vantages": [{"name": "X", "aggressive_hops": ["3"]}]}',
                "world.vantages[X].aggressive_hops[0] must be an int in 1..3, not '3'",
            ),
        ],
    )
    def test_malformed_world_file_is_one_line_naming_the_file(
        self, tmp_path, document, reason
    ):
        world = tmp_path / "w.json"
        world.write_text(document)
        out = str(tmp_path / "caida.seeds")
        code, text = run(["seeds", "--world", str(world), "--source", "caida", "--out", out])
        assert code == 2
        assert text.startswith("%s: %s" % (world, reason)), text
        assert text.count("\n") == 1
        assert not os.path.exists(out)

    def test_world_file_accepts_ints_for_floats_and_lists_for_tuples(self, tmp_path):
        world = tmp_path / "w.json"
        world.write_text('{"response_loss": 0, "cpe_www_fractions": [1, 0.5], "n_edge": 9}')
        with open(world) as source:
            config = load_config(source)
        assert config == InternetConfig(
            response_loss=0, cpe_www_fractions=(1, 0.5), n_edge=9
        )
        assert isinstance(config.cpe_www_fractions, tuple)

    def test_a_refused_world_is_refused_by_every_command_that_builds_it(
        self, world_file, tmp_path
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hosts_per_leaf": [4, 1]}')
        targets = tmp_path / "t.targets"
        targets.write_text("2001:db8::1\n")
        results = str(tmp_path / "run.yrp6")
        probe = ["probe", "--vantage", "EU-NET", "--targets", str(targets)]
        assert run(probe + ["--world", world_file, "--out", results])[0] == 0
        refused = "%s: world.hosts_per_leaf must be ints 0 <= low <= high, not (4, 1)\n" % bad
        for argv in (
            probe + ["--world", str(bad), "--out", str(tmp_path / "bad.yrp6")],
            ["analyze", "--results", results, "--world", str(bad), "--subnets"],
        ):
            code, text = run(argv)
            assert code == 2
            assert text.endswith(refused) and "Traceback" not in text, text
        assert not os.path.exists(tmp_path / "bad.yrp6")

    @pytest.mark.parametrize("loss", ["2.0", "-0.1", "NaN"])
    def test_probe_refuses_a_response_loss_that_is_not_a_probability(self, tmp_path, loss):
        # Was: exit 0 with "848 probes, 0 responses" at 2.0, no loss at all at NaN.
        world = tmp_path / "w.json"
        world.write_text('{"n_edge": 30, "cpe_customers_per_isp": 150, "response_loss": %s}' % loss)
        targets = tmp_path / "t.targets"
        targets.write_text("2001:db8::1\n")
        out = tmp_path / "run.yrp6"
        code, text = run(
            ["probe", "--world", str(world), "--targets", str(targets), "--out", str(out)]
        )
        assert code == 2
        assert text.startswith("%s: world.response_loss must be within [0, 1]" % world), text
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            # Built the --edge 0 world and wrote "n_edge": -1 into the file.
            (["--edge", "-1"], "world.n_edge must be an int >= 0, not -1\n"),
            # Built the --cpe 0 world (one customer per pool).
            (["--cpe", "-5"], "world.cpe_customers_per_isp must be an int >= 0, not -5\n"),
        ],
    )
    def test_world_refuses_before_it_writes(self, tmp_path, flags, reason):
        path = tmp_path / "w.json"
        assert run(["world", "--out", str(path)] + flags) == (2, reason)
        assert not path.exists()

    def test_world_command_output(self, world_file, tmp_path):
        data = json.loads(open(world_file).read())
        assert data["n_edge"] == 30
        assert data["seed"] == 5
        # The summary line, character for character (hosts are counted,
        # not materialised as one address each).
        path = str(tmp_path / "again.json")
        assert run(["world", "--edge", "30", "--cpe", "150", "--seed", "5", "--out", path]) == (
            0,
            "world written to %s: 52 ASes, 1689 routers, 1046 leaf /64s, 2628 hosts\n" % path,
        )


#: (flags, targets, message, id): what ``probe`` refuses before it builds a
#: world, whichever prober runs, with the campaign's own message.
REFUSED_BY_EVERY_PROBER = [
    (["--pps", "0"], "2001:db8::1\n", "rate must be positive and finite: 0.0\n", "pps-0"),
    (
        ["--pps", "-1"],
        "2001:db8::1\n",
        "rate must be positive and finite: -1.0\n",
        "pps-negative",
    ),
    (
        ["--pps=-inf"],
        "2001:db8::1\n",
        "rate must be positive and finite: -inf\n",
        "pps-minus-inf",
    ),
    (["--max-ttl", "0"], "2001:db8::1\n", "bad TTL range [1, 0]\n", "max-ttl-0"),
    (["--max-ttl", "256"], "2001:db8::1\n", "bad TTL range [1, 256]\n", "max-ttl-256"),
    (
        ["--vantage", "eu-net"],
        "2001:db8::1\n",
        "unknown vantage 'eu-net' (configured: EU-NET, US-EDU-1, US-EDU-2)\n",
        "vantage-case",
    ),
    ([], "# only a comment\n", "no targets in {targets}\n", "no-targets"),
    (
        [],
        "2001:db8::/48\n",
        "{targets}:1: a prefix, not a target address: '2001:db8::/48'\n",
        "only-prefixes",
    ),
]


class TestPipeline:
    def test_seeds_targets_probe_analyze(self, world_file, tmp_path):
        seeds_path = str(tmp_path / "caida.seeds")
        code, text = run(
            ["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path]
        )
        assert code == 0
        assert "caida" in text
        lines = [l for l in open(seeds_path) if l.strip()]
        assert lines and all("/" in line for line in lines)  # prefix seeds

        targets_path = str(tmp_path / "caida.targets")
        code, text = run(
            ["targets", "--seeds", seeds_path, "--level", "64", "--out", targets_path]
        )
        assert code == 0
        target_lines = [l.strip() for l in open(targets_path) if l.strip()]
        assert target_lines
        assert all("/" not in line for line in target_lines)

        results_path = str(tmp_path / "run.yrp6")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--vantage", "EU-NET",
                "--targets", targets_path,
                "--pps", "1000",
                "--fill",
                "--out", results_path,
            ]
        )
        assert code == 0
        assert "interfaces" in text

        code, text = run(
            ["analyze", "--results", results_path, "--world", world_file, "--subnets", "--graph"]
        )
        assert code == 0
        assert "unique interfaces" in text
        assert "interface graph" in text
        assert "subnets:" in text

    def test_unknown_seed_source(self, world_file, tmp_path):
        code, text = run(
            [
                "seeds",
                "--world", world_file,
                "--source", "nope",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "unknown source" in text

    def test_unknown_seed_source_is_refused_before_the_world_is_read(self, tmp_path):
        code, text = run(
            [
                "seeds",
                "--world", str(tmp_path / "nonexistent"),
                "--source", "NOPE",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert text == (
            "unknown source 'NOPE'; available: 6gen, caida, cdn-k256, cdn-k32, "
            "dnsdb, fdns_any, fiebig, random, tum\n"
        )

    def test_seeds_builds_only_the_named_source(self, world_file, tmp_path, monkeypatch):
        """``--source dnsdb`` must not pay for 6Gen or the kIP aggregations."""

        def bomb(*args, **kwargs):
            raise AssertionError("a source nobody asked for was synthesized")

        monkeypatch.setattr("repro.seeds.sources.generate", bomb)
        monkeypatch.setattr("repro.seeds.sources.kip_aggregate", bomb)
        out_path = tmp_path / "dnsdb.seeds"
        code, text = run(
            ["seeds", "--world", world_file, "--source", "dnsdb", "--out", str(out_path)]
        )
        assert code == 0, text
        assert out_path.read_text().strip()

    def test_probe_other_probers(self, world_file, tmp_path):
        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        for prober in ("sequential", "doubletree"):
            results = str(tmp_path / ("%s.yrp6" % prober))
            code, text = run(
                [
                    "probe",
                    "--world", world_file,
                    "--targets", targets_path,
                    "--prober", prober,
                    "--out", results,
                ]
            )
            assert code == 0, text

    def test_probe_fill_requires_yarrp6(self, world_file, tmp_path):
        """A flag only Yarrp6 has is refused, not dropped."""
        targets = tmp_path / "t"
        targets.write_text("2001:db8::1\n")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", str(targets),
                "--prober", "sequential",
                "--fill",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "--fill requires the yarrp6 prober" in text

    @pytest.mark.parametrize(
        "flags, message",
        [
            # A TTL the hop-limit byte cannot carry, for every --prober: the
            # spec's walk range is checked before any prober is constructed.
            (["--max-ttl", "0"], "bad TTL range [1, 0]\n"),
            (["--prober", "sequential", "--max-ttl", "300"], "bad TTL range [1, 300]\n"),
            (["--prober", "doubletree", "--max-ttl", "0"], "bad TTL range [1, 0]\n"),
            # Values the pacer cannot honour: `--pps inf` ran at 1 µs and
            # wrote `Infinity` into the manifest, `nan` died with a traceback.
            (["--pps", "inf"], "rate must be positive and finite: inf\n"),
            (["--pps", "nan"], "rate must be positive and finite: nan\n"),
        ],
    )
    def test_probe_validates_what_it_was_given_whatever_workers_is(
        self, world_file, tmp_path, monkeypatch, flags, message
    ):
        from repro.netsim import Internet

        def no_world(*args, **kwargs):
            raise AssertionError("a world was built before the arguments were checked")

        # cmd_probe builds its world here.
        monkeypatch.setattr(Internet, "from_config", no_world)
        targets = tmp_path / "t"
        targets.write_text("2001:db8::1\n")
        out = tmp_path / "never.yrp6"
        code, text = run(
            ["probe", "--world", world_file, "--targets", str(targets), "--out", str(out)]
            + flags
        )
        assert (code, text) == (2, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "prober, flags, targets, message",
        [
            pytest.param(prober, flags, targets, message, id="%s-%s" % (name, prober))
            for flags, targets, message, name in REFUSED_BY_EVERY_PROBER
            for prober in ("yarrp6", "sequential", "doubletree")
        ]
        # The one refusal that is a prober's own: Doubletree's start TTL,
        # which no flag sets, above ``--max-ttl``.
        + [
            pytest.param(
                "doubletree",
                ["--max-ttl", "4"],
                "2001:db8::1\n",
                "start TTL 8 outside probing range [1, 4]\n",
                id="start-ttl-above-max-ttl-doubletree",
            )
        ],
    )
    def test_every_prober_refuses_before_it_builds_a_world(
        self, world_file, tmp_path, monkeypatch, prober, flags, targets, message
    ):
        """The serial ``probe`` checks its campaign once, whichever prober
        runs it, and the chosen prober's own config, each with the message
        the campaign would give and no world built."""
        from repro.netsim import Internet

        def no_world(*args, **kwargs):
            raise AssertionError("a world was built before the arguments were checked")

        monkeypatch.setattr(Internet, "from_config", no_world)
        targets_path = tmp_path / "t"
        targets_path.write_text(targets)
        out = tmp_path / "never.yrp6"
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", str(targets_path),
                "--prober", prober,
                "--out", str(out),
            ]
            + flags
        )
        assert (code, text) == (2, message.format(targets=targets_path))
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2"],
            ["--strict"],
            ["--shard-timeout", "5"],
            ["--max-retries", "1"],
            ["--allocsan"],
            ["--allocsan-report", "r.json"],
            ["--detsan"],
        ],
        ids=[
            "workers", "strict", "shard-timeout", "max-retries", "allocsan", "allocsan-report",
            "detsan",
        ],
    )
    def test_the_retired_flags_are_refused_not_ignored(self, world_file, tmp_path, capsys, flags):
        """``probe`` is one serial campaign and carries no sanitizer: a
        script that still asks for shards, a retry budget or a retired
        sanitizer stops at the parser, exit 2."""
        targets = tmp_path / "t"
        targets.write_text("2001:db8::1\n")
        out = tmp_path / "never.yrp6"
        with pytest.raises(SystemExit) as excinfo:
            run(
                ["probe", "--world", world_file, "--targets", str(targets), "--out", str(out)]
                + flags
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(flags) in capsys.readouterr().err
        assert not out.exists()

    def test_probe_max_ttl_reaches_the_baseline_probers(self, world_file, tmp_path):
        from repro.prober.output import load_campaign

        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        sent = {}
        for name, extra in (("default", []), ("short", ["--max-ttl", "4"])):
            results = str(tmp_path / ("%s.yrp6" % name))
            code, text = run(
                [
                    "probe",
                    "--world", world_file,
                    "--targets", targets_path,
                    "--prober", "sequential",
                    "--out", results,
                ]
                + extra
            )
            assert code == 0, text
            sent[name] = int(text.split(": ")[1].split(" probes")[0])
        assert 0 < sent["short"] < sent["default"]
        records = load_campaign(str(tmp_path / "short.yrp6")).records
        assert records and max(record.ttl for record in records) <= 4

    def test_empty_targets_rejected(self, world_file, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("# nothing\n")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", str(empty),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, line, reason",
        [
            ("probe", "not-an-address", "invalid group 'not-an-address'"),
            ("probe", "2001:db8::/48", "a prefix, not a target address"),
            ("targets", "2001:db8::/200", "prefix length out of range: 200"),
        ],
    )
    def test_malformed_input_line_names_file_and_line(
        self, world_file, tmp_path, command, line, reason
    ):
        listing = tmp_path / "items"
        listing.write_text("# header\n2001:db8::1\n%s\n" % line)
        argv = {
            "probe": ["probe", "--world", world_file, "--targets", str(listing)],
            "targets": ["targets", "--seeds", str(listing)],
        }[command]
        code, text = run(argv + ["--out", str(tmp_path / "never")])
        assert code == 2
        assert text == "%s:3: %s: %r\n" % (listing, reason, line)

    def test_missing_targets_file_is_a_one_line_error(self, world_file, tmp_path):
        missing = str(tmp_path / "nonexistent")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", missing,
                "--out", str(tmp_path / "never"),
            ]
        )
        assert code == 2
        assert missing in text and text.count("\n") == 1

    def test_unknown_vantage_lists_the_configured_ones(self, world_file, tmp_path):
        targets = tmp_path / "t"
        targets.write_text("2001:db8::1\n")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--vantage", "NOPE",
                "--targets", str(targets),
                "--out", str(tmp_path / "never"),
            ]
        )
        assert code == 2
        assert text == (
            "unknown vantage 'NOPE' (configured: EU-NET, US-EDU-1, US-EDU-2)\n"
        )

    def test_probe_metrics_writes_manifest(self, world_file, tmp_path):
        from repro.obs import MANIFEST_FORMAT, read_manifest

        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        results = str(tmp_path / "run.yrp6")
        manifest_path = str(tmp_path / "run.manifest.json")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--out", results,
                "--metrics", manifest_path,
            ]
        )
        assert code == 0, text
        assert manifest_path in text
        manifest = read_manifest(manifest_path)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["seed"] == 5  # the world's seed, from the file
        assert manifest["records_file"] == results
        assert manifest["wallclock"]["seconds"] >= 0
        assert manifest["world"]["n_edge"] == 30
        assert manifest["run"]["sent"] > 0
        sent = sum(value for _, value in manifest["metrics"]["campaign.sent"]["points"])
        assert sent == manifest["run"]["sent"]
        # Telemetry changed nothing: the records match a plain run.
        plain = str(tmp_path / "plain.yrp6")
        run(["probe", "--world", world_file, "--targets", targets_path, "--out", plain])
        assert open(results).read() == open(plain).read()

    def test_stats_renders_manifest(self, world_file, tmp_path):
        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        manifest_path = str(tmp_path / "m.json")
        run(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--out", str(tmp_path / "r.yrp6"),
                "--metrics", manifest_path,
            ]
        )
        code, text = run(["stats", manifest_path])
        assert code == 0
        assert "seed" in text
        assert "wall seconds" in text
        assert "prober.ttl_yield" in text
        assert "campaign.sent" in text  # the series table

    def test_stats_shows_the_summary_block(self, world_file, tmp_path):
        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        manifest_path = str(tmp_path / "m.json")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--fill",
                "--out", str(tmp_path / "r.yrp6"),
                "--metrics", manifest_path,
            ]
        )
        assert code == 0, text
        code, text = run(["stats", manifest_path])
        assert code == 0
        assert "summary" in text
        assert "fills_unsent" in text

    def test_stats_reads_a_manifest_with_the_retired_sharding_keys(self, tmp_path):
        """``probe --workers 2 --metrics`` once wrote ``run.workers``,
        ``run.contract``, a ``failures`` block and a ``scope`` in every
        metric entry.  Such a manifest still renders: the run keys as run
        rows, the metrics as before, the failures block unread."""
        manifest = tmp_path / "sharded.json"
        manifest.write_text(json.dumps({
            "format": "repro-manifest/1",
            "run": {
                "contract": "2-instances (limiters|loss)", "duration_us": 267370,
                "interfaces": 136, "name": "EU-NET/yarrp6", "pps": 5000.0,
                "prober": "yarrp6", "responses": 796, "sent": 848, "targets": 53,
                "vantage": "EU-NET", "workers": 2,
            },
            "seed": 5,
            "summary": {"interfaces": 136, "received": 797, "sent": 848},
            "metrics": {
                "campaign.sent": {
                    "bucket_us": 1000000, "kind": "series", "points": [[0, 848]],
                    "scope": "merge",
                },
                "prober.sent": {"kind": "counter", "scope": "merge", "value": 848},
                "prober.ttl_yield": {
                    "kind": "counter_map", "scope": "merge", "values": [[1, 52], [2, 53]],
                },
            },
            "failures": {
                "attempts": [],
                "format": "repro-failures/2",
                "metrics": {
                    "shard.retries": {"kind": "counter", "scope": "merge", "value": 0},
                },
            },
            "records_file": "par.yrp6",
            "wallclock": {"seconds": 0.23},
        }))
        code, text = run(["stats", str(manifest), "--top", "2"])
        assert code == 0, text
        rows = [line.split() for line in text.splitlines()]
        assert ["contract", "2-instances", "(limiters|loss)"] in rows
        assert ["workers", "2"] in rows
        assert ["prober.sent", "848"] in rows
        assert ["campaign.sent", "1", "848"] in rows
        assert "top 2 TTL yield" in text
        assert "supervision" not in text and "shard.retries" not in text

    @pytest.mark.parametrize(
        "retired", ["workers", "contract", "failures", "scope", "instruments"]
    )
    def test_stats_reads_a_manifest_with_one_retired_key(self, tmp_path, retired):
        """Each of the keys ``probe --workers`` once wrote, on its own in
        an otherwise serial manifest, and the engine's and the prober's
        own counters and gauge that ``probe --metrics`` once wrote:
        ``stats`` renders the manifest as it renders one without it, the
        retired metrics as rows of their own."""
        document = {
            "format": "repro-manifest/1",
            "run": {
                "duration_us": 1000, "interfaces": 3, "name": "EU-NET/yarrp6", "pps": 5000.0,
                "prober": "yarrp6", "responses": 4, "sent": 5, "targets": 1,
                "vantage": "EU-NET",
            },
            "seed": 5,
            "summary": {"interfaces": 3, "received": 4, "sent": 5},
            "metrics": {"prober.sent": {"kind": "counter", "value": 5}},
        }
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(document))
        if retired == "workers":
            document["run"]["workers"] = 2
        elif retired == "contract":
            document["run"]["contract"] = "exact"
        elif retired == "failures":
            document["failures"] = {"attempts": [], "format": "repro-failures/2", "metrics": {}}
        elif retired == "scope":
            document["metrics"]["prober.sent"]["scope"] = "merge"
        else:
            # As ``probe --metrics`` wrote them when the engine and the
            # prober held a registry.
            document["metrics"].update({
                "engine.events_fired": {"kind": "counter", "value": 2},
                "engine.events_scheduled": {"kind": "counter", "value": 2},
                "engine.queue_depth": {
                    "kind": "gauge", "last": 1, "max": 1, "min": 1, "samples": 2,
                },
                "prober.fills": {"kind": "counter", "value": 0},
                "prober.responses": {"kind": "counter", "value": 4},
                "prober.skipped": {"kind": "counter", "value": 0},
            })
        old = tmp_path / "old.json"
        old.write_text(json.dumps(document))
        code, text = run(["stats", str(old)])
        assert code == 0, text
        lines = text.splitlines()
        expected = run(["stats", str(plain)])[1].splitlines()
        if retired in ("workers", "contract"):
            row = {"workers": ["workers", "2"], "contract": ["contract", "exact"]}[retired]
            assert row in [line.split() for line in lines]
            lines = [line for line in lines if line.split() != row]
        if retired == "instruments":
            # The metrics table widens for the longer names: compare cells.
            rows = [
                [cell for cell in line.split() if set(cell) != {"-"}] for line in lines
            ]
            for row in (
                ["engine.events_fired", "2"],
                ["engine.events_scheduled", "2"],
                ["engine.queue_depth", "last=1", "min=1", "max=1"],
                ["prober.fills", "0"],
                ["prober.responses", "4"],
                ["prober.skipped", "0"],
            ):
                assert row in rows
                rows.remove(row)
            assert rows == [
                [cell for cell in line.split() if set(cell) != {"-"}] for line in expected
            ]
        else:
            assert [line.replace(str(old), str(plain)) for line in lines] == expected

    def test_stats_rejects_missing_or_malformed(self, tmp_path):
        code, text = run(["stats", str(tmp_path / "nope.json")])
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other/1"}\n')
        code, text = run(["stats", str(bad)])
        assert code == 2
        assert "repro-manifest/1" in text

    @pytest.mark.parametrize(
        "argv, content, reason",
        [
            # Three readers used to give three shapes, two without the name.
            (["analyze", "--results"], b"hello world\n", "not a yrp6/1 file\n"),
            (["analyze", "--results"], b"", "empty file, not a yrp6/1 file\n"),
            (
                ["stats"],
                b'{"format": "repro-manifest/1",',
                "not a JSON manifest: Expecting property name enclosed in double quotes",
            ),
            (["stats"], b"[1, 2]\n", "not a repro-manifest/1 file\n"),
            # The right format tag over a malformed body: each was a
            # traceback (KeyError 'value', TypeError, IndexError), exit 1.
            (
                ["stats"],
                b'{"format": "repro-manifest/1",'
                b' "metrics": {"prober.sent": {"kind": "counter"}}}',
                "counter metrics['prober.sent'] has no well-formed 'value'\n",
            ),
            (
                ["stats"],
                b'{"format": "repro-manifest/1", "metrics":'
                b' {"prober.ttl_yield": {"kind": "counter_map", "values": [1, 2]}}}',
                "counter_map metrics['prober.ttl_yield'] has no well-formed 'values'\n",
            ),
            (
                ["stats"],
                b'{"format": "repro-manifest/1", "run": [1]}',
                "run must be an object, not [1]\n",
            ),
            # Bytes that are not text: each was a bare UnicodeDecodeError,
            # exit 2 by inheritance and with no file name.
            (
                ["analyze", "--results"],
                b"# yrp6/1\n2001:db8::1\t\xff\n",
                "'utf-8' codec can't decode byte 0xff",
            ),
            (
                ["stats"],
                b'{"format": "repro-manifest/1", "seed": "\xff"}',
                "not a JSON manifest: 'utf-8' codec can't decode byte 0xff",
            ),
            (
                ["targets", "--out", os.devnull, "--seeds"],
                b"2001:db8::1\n\xff\n",
                "'utf-8' codec can't decode byte 0xff",
            ),
        ],
    )
    def test_unreadable_results_or_manifest_is_one_line_naming_the_file(
        self, tmp_path, argv, content, reason
    ):
        bad = tmp_path / "bad.file"
        bad.write_bytes(content)
        code, text = run(argv + [str(bad)])
        assert code == 2
        assert text.startswith("%s: %s" % (bad, reason)), text
        assert text.count("\n") == 1

    def test_subnets_requires_world(self, world_file, tmp_path):
        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        results = str(tmp_path / "r.yrp6")
        run(
            ["probe", "--world", world_file, "--targets", targets_path, "--out", results]
        )
        code, text = run(["analyze", "--results", results, "--subnets"])
        assert code == 2
        # Refused before the file is loaded: no summary table, one line.
        assert text == "--subnets needs --world for ASN attribution\n"


class TestNoGarbage:
    def test_probe_strands_no_more_objects_than_seeds(self, world_file, tmp_path):
        """A campaign leaves no reference cycle behind: with the collector
        off, a ``probe`` command's unreachable objects are argparse's own
        — what ``seeds`` leaves too — not the world and its records."""
        import gc

        seeds_path = str(tmp_path / "s")
        targets_path = str(tmp_path / "t")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        run(["targets", "--seeds", seeds_path, "--out", targets_path])

        def stranded(argv):
            gc.collect()
            gc.disable()
            try:
                code, text = run(argv)
                assert code == 0, text
                return gc.collect()
            finally:
                gc.enable()

        seeds = stranded(
            ["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path]
        )
        probe = stranded(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--out", str(tmp_path / "r.yrp6"),
            ]
        )
        assert probe <= seeds, (probe, seeds)


class TestProfile:
    def _pipeline(self, world_file, tmp_path):
        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        return targets_path

    def test_probe_profile_writes_trace_report_and_manifest(
        self, world_file, tmp_path
    ):
        from repro.obs import read_manifest

        targets_path = self._pipeline(world_file, tmp_path)
        results = str(tmp_path / "prof.yrp6")
        trace_path = str(tmp_path / "trace.json")
        manifest_path = str(tmp_path / "prof.manifest.json")
        code, text = run(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--out", results,
                "--metrics", manifest_path,
                "--profile", trace_path,
            ]
        )
        assert code == 0, text
        assert "Perfetto trace -> %s" % trace_path in text
        assert "self%" in text  # the phase-tree report
        with open(trace_path) as source:
            document = json.load(source)
        names = {e.get("name") for e in document["traceEvents"] if e["ph"] == "X"}
        assert "probe" in names
        assert "campaign.run" in names
        manifest = read_manifest(manifest_path)
        profile = manifest["wallclock"]["profile"]
        assert profile["coverage"] >= 0.95
        paths = {row["path"] for row in profile["phases"]}
        assert "probe" in paths
        # The world's teardown (tens of thousands of objects freed by
        # reference count) has a phase of its own.
        assert "probe/world.free" in paths
        # Profiling is observe-only: the records match an unprofiled run.
        plain = str(tmp_path / "plain.yrp6")
        run(["probe", "--world", world_file, "--targets", targets_path, "--out", plain])
        assert open(results, "rb").read() == open(plain, "rb").read()

    def test_probe_profile_coverage_holds_run_after_run(self, world_file, tmp_path):
        """One process, several profiled commands: wherever the world is
        freed and whatever the collector does between commands, every
        reading attributes >= 95% of ``probe`` to a named child."""
        from repro.obs import read_manifest

        targets_path = self._pipeline(world_file, tmp_path)
        manifest_path = str(tmp_path / "again.manifest.json")
        readings = []
        for _ in range(6):
            code, text = run(
                [
                    "probe",
                    "--world", world_file,
                    "--targets", targets_path,
                    "--out", str(tmp_path / "again.yrp6"),
                    "--metrics", manifest_path,
                    "--profile", str(tmp_path / "again-trace.json"),
                ]
            )
            assert code == 0, text
            profile = read_manifest(manifest_path)["wallclock"]["profile"]
            readings.append(profile["coverage"])
        assert min(readings) >= 0.95, readings

    def test_stats_top_renders_ttl_and_phase_tables(self, world_file, tmp_path):
        targets_path = self._pipeline(world_file, tmp_path)
        manifest_path = str(tmp_path / "m.json")
        run(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--out", str(tmp_path / "r.yrp6"),
                "--metrics", manifest_path,
                "--profile", str(tmp_path / "trace.json"),
            ]
        )
        code, text = run(["stats", manifest_path, "--top", "3"])
        assert code == 0
        assert "top 3 TTL yield" in text
        assert "top 3 profiler phases by self time" in text

    def test_stats_top_without_profile_skips_phase_table(
        self, world_file, tmp_path
    ):
        targets_path = self._pipeline(world_file, tmp_path)
        manifest_path = str(tmp_path / "m.json")
        run(
            [
                "probe",
                "--world", world_file,
                "--targets", targets_path,
                "--out", str(tmp_path / "r.yrp6"),
                "--metrics", manifest_path,
            ]
        )
        code, text = run(["stats", manifest_path, "--top", "2"])
        assert code == 0
        assert "top 2 TTL yield" in text
        assert "profiler phases" not in text


def _manifest_counts_the_run(workdir, text):
    manifest = json.loads((workdir / "artefact.json").read_text())
    sent = sum(value for _, value in manifest["metrics"]["campaign.sent"]["points"])
    assert sent == manifest["run"]["sent"] > 0


def _trace_has_events(workdir, text):
    assert "Perfetto trace" in text, text
    assert json.loads((workdir / "artefact.json").read_text())["traceEvents"]


def _observers_compose(workdir, text):
    # One profiled run feeds both: one trace, one manifest profile.
    assert "Perfetto trace" in text, text
    assert json.loads((workdir / "trace.json").read_text())["traceEvents"]
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert manifest["wallclock"]["profile"]["phases"], manifest["wallclock"]


#: Observer flags and what its artefact must show.
OBSERVERS = {
    "metrics": (["--metrics", "artefact.json"], _manifest_counts_the_run),
    "profile": (["--profile", "artefact.json"], _trace_has_events),
    "profile-metrics": (
        ["--profile", "trace.json", "--metrics", "manifest.json"],
        _observers_compose,
    ),
}


class TestObserversAreInert:
    @pytest.mark.parametrize("name", sorted(OBSERVERS))
    def test_flagged_run_writes_the_bare_runs_bytes(self, name, world_file, tmp_path):
        """Observers are observe-only: a flagged run, in a fresh
        interpreter under another hash seed, writes the bytes of a bare
        run.  The seed differs from this process's, so the row is also a
        cross-hash-seed check of the path with observers on."""
        flags, check = OBSERVERS[name]
        seeds_path = str(tmp_path / "s")
        run(["seeds", "--world", world_file, "--source", "caida", "--out", seeds_path])
        targets_path = str(tmp_path / "t")
        run(["targets", "--seeds", seeds_path, "--out", targets_path])
        probe = ["probe", "--world", world_file, "--targets", targets_path]
        code, text = run(probe + ["--out", str(tmp_path / "bare.yrp6")])
        assert code == 0, text
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        other_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli.main"] + probe
            + ["--out", "flagged.yrp6"] + flags,
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED=other_seed),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        check(tmp_path, done.stdout)
        assert (tmp_path / "flagged.yrp6").read_bytes() == (tmp_path / "bare.yrp6").read_bytes()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run([])

    def test_version(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0

    def test_module_entry_point_starts_without_runpy_warning(self):
        """``python -m repro.cli.main`` imports the package first; an eager
        ``from .main import ...`` there makes runpy warn on every run."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.cli.main", "--version"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_package_exports_the_entry_points_in_any_import_order(self):
        """This module imported ``repro.cli.main`` first, which binds the
        submodule over ``repro.cli.main``; the package must still hand
        out the functions."""
        from repro.cli import build_parser, main as package_main

        assert package_main is main
        assert build_parser().prog == "repro-sim"
