"""The ledger at ``--smoke`` sizes (edge 24 / cpe 40 / 60 targets, one
repetition, one pass): names and units, failure accounting, the
``benchmarks.emit`` comparison, and the traced run's own checks.

Run with ``python -m pytest benchmarks/ledger/test_ledger.py`` (the
benchmark's files live under its own directory, outside ``testpaths``).
"""

import copy
import json
import os
import re

import pytest

from benchmarks import emit
from benchmarks.ledger import harness, layers, workloads
from benchmarks.ledger.__main__ import main as ledger_main

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as _source:
    BENCHMARK = json.load(_source)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One whole smoke ``run`` that also pins its own ``expected.json``."""
    scratch = tmp_path_factory.mktemp("ledger")
    out, expected = str(scratch / "BENCH.json"), str(scratch / "expected.json")
    code = ledger_main(
        ["run", "--smoke", "--reps", "1", "--pin", "--expected", expected, "--out", out]
    )
    with open(out) as source:
        return {"code": code, "out": out, "expected": expected, "payload": json.load(source)}


class TestBenchmarkJson:
    def test_names_are_well_formed_and_unique(self):
        names = [
            entry["name"]
            for section in ("workloads", "end_to_end", "per_layer")
            for entry in BENCHMARK[section]
        ]
        assert all(NAME.match(name) for name in names)
        assert len(names) == len(set(names))

    def test_workloads_echo_the_code(self):
        assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
            name: workload.why for name, workload in workloads.WORKLOADS.items()
        }
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])

    def test_end_to_end_echoes_the_code(self):
        declared = {
            m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
        }
        assert declared == harness.END_TO_END
        assert declared["setup_s"][2] == max(bound for _, _, bound in declared.values())

    def test_per_layer_echoes_the_code(self):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
        assert declared == layers.PER_LAYER

    def test_paths_hold_the_command(self):
        assert BENCHMARK["paths"] == ["benchmarks/ledger"]
        assert BENCHMARK["command"][-1].startswith(BENCHMARK["paths"][0] + "/")


class TestRun:
    def test_every_metric_is_emitted_once_with_its_unit(self, smoke_run):
        assert smoke_run["code"] == 0
        tracked = smoke_run["payload"]["tracked"]
        expected_names = {
            "%s.%s" % (workload, metric)
            for workload in workloads.WORKLOADS
            for metric in list(harness.END_TO_END) + ["fail_ratio"]
        }
        assert set(tracked) == expected_names
        for workload in workloads.WORKLOADS:
            for metric, (_, better, bound) in harness.END_TO_END.items():
                entry = tracked["%s.%s" % (workload, metric)]
                assert entry["value"] > 0
                assert (entry["direction"], entry["threshold"]) == (better, bound)
            assert tracked[workload + ".fail_ratio"]["value"] == 0.0

    def test_format_entry_names_each_metric_once(self):
        entry = harness.run_workload("yarrp6-walk", 2018, "smoke", reps=1, expected_path=None)
        lines = harness.format_entry(entry).splitlines()
        for metric, (unit, _, _) in harness.END_TO_END.items():
            matching = [line for line in lines if line.split()[0] == metric]
            assert len(matching) == 1 and unit in matching[0].split()

    def test_payload_has_host_and_sim_blocks(self, smoke_run):
        payload = smoke_run["payload"]
        assert set(payload["host"]) == {
            "cores", "python", "numpy", "start_method", "git_commit"
        }
        assert set(payload["sim"]) == set(workloads.WORKLOADS)
        walk = payload["sim"]["yarrp6-walk"]["yarrp6"]
        assert walk["sent"] == 60 * 16 and len(walk["sha256"]) == 64
        assert walk["stats"]["probes"] == walk["sent"]

    def test_tampered_expected_fails_operations(self, smoke_run, tmp_path):
        with open(smoke_run["expected"]) as source:
            expected = json.load(source)
        expected["sim"]["yarrp6-walk"]["yarrp6"]["sent"] += 1
        tampered, out = str(tmp_path / "expected.json"), str(tmp_path / "BENCH.json")
        with open(tampered, "w") as sink:
            json.dump(expected, sink)
        code = ledger_main(
            ["run", "--smoke", "--reps", "1", "--workload", "yarrp6-walk",
             "--expected", tampered, "--out", out]
        )
        assert code == 1
        with open(out) as source:
            assert json.load(source)["tracked"]["yarrp6-walk.fail_ratio"]["value"] == 1.0

    def test_emit_baseline_is_the_comparer(self, smoke_run, tmp_path):
        assert emit.main([smoke_run["out"], "--baseline", smoke_run["out"]]) == 0
        worse = copy.deepcopy(smoke_run["payload"])
        entry = worse["tracked"]["yarrp6-walk.wall_s"]
        entry["value"] *= 1.0 + entry["threshold"] + 0.01
        path = str(tmp_path / "worse.json")
        with open(path, "w") as sink:
            json.dump(worse, sink)
        assert emit.main([path, "--baseline", smoke_run["out"]]) == 1
        # The other way round the same numbers are an improvement.
        assert emit.main([smoke_run["out"], "--baseline", path]) == 0


class TestFailureAccounting:
    def test_raising_operation_is_a_failed_operation(self):
        def boom():
            raise RuntimeError("boom")

        this = workloads.Pass()
        this.attempt("boom", boom)
        sim = this.sim()
        assert sim == {"boom": {"error": "RuntimeError: boom"}}
        assert len(this.walls) == len(this.cpus) == 1 and this.spins == []
        report = {"passes": [{"sim": sim}]}
        assert harness.count_operations([report], None) == (1, 1)

    def test_passes_must_agree_with_each_other(self):
        first = {"passes": [{"sim": {"op": {"sent": 1}}}, {"sim": {"op": {"sent": 1}}}]}
        second = {"passes": [{"sim": {"op": {"sent": 2}}}]}
        assert harness.count_operations([first, second], None) == (3, 1)

    def test_crashed_child_is_one_failed_operation(self):
        assert harness.run_child("no-such-workload", 2018, "smoke") is None
        entry = harness.summarize("no-such-workload", [None], None)
        assert (entry["attempted"], entry["failed"], entry["fail_ratio"]) == (1, 1, 1.0)


class TestTrace:
    def test_every_layer_metric_once_and_checks_pass(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
        report = layers.run_trace_child("yarrp6-fill", 2018, "smoke")
        # The checks include: the replay's Internet.stats and record count
        # equal the campaign's on the same stream.
        assert report["failures"] == [] and report["attempted"] >= 15
        assert sorted(report["layers"]) == sorted(layers.PER_LAYER)
        lines = layers.format_layers(report).splitlines()
        for name, (unit, _) in layers.PER_LAYER.items():
            matching = [line.split() for line in lines if line.split()[0] == name]
            assert len(matching) == 1 and matching[0][-1] == unit
        with open(tmp_path / "trace_yarrp6-fill.json") as source:
            events = json.load(source)["traceEvents"]
        roots = {event["name"] for event in events}
        assert {"layer-replay", "netsim.build", "yarrp6-fill", "untraced:yarrp6-fill"} <= roots
