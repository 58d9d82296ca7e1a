"""Run manifest round-trip, determinism view, and format errors."""

import pytest

from repro.obs import (
    MANIFEST_FORMAT,
    ManifestError,
    build_manifest,
    deterministic_view,
    manifest_dumps,
    read_manifest,
    write_manifest,
)
from repro.prober.campaign import CampaignResult


def result(metrics=None):
    return CampaignResult(
        name="run",
        vantage="EU-NET",
        prober="yarrp6",
        pps=1000.0,
        targets=10,
        sent=160,
        records=[],
        interfaces={1, 2, 3},
        curve=[],
        response_labels={},
        summary={"time exceeded": 5},
        duration_us=999,
        metrics=metrics,
    )


class TestBuild:
    def test_headline_fields(self):
        manifest = build_manifest(result(), seed=2018)
        assert manifest["format"] == MANIFEST_FORMAT
        run = manifest["run"]
        assert run["vantage"] == "EU-NET"
        assert run["prober"] == "yarrp6"
        assert run["sent"] == 160
        assert run["interfaces"] == 3
        assert manifest["seed"] == 2018
        assert manifest["summary"] == {"time exceeded": 5}
        assert manifest["metrics"] == {}
        assert "wallclock" not in manifest
        assert "world" not in manifest

    def test_optional_sections(self):
        dump = {"prober.sent": {"kind": "counter", "value": 160}}
        manifest = build_manifest(
            result(),
            seed=7,
            metrics=dump,
            world={"n_edge": 6},
            records_file="run.yrp6",
            wall_seconds=1.25,
        )
        assert manifest["metrics"] == dump
        assert manifest["world"] == {"n_edge": 6}
        assert manifest["records_file"] == "run.yrp6"
        assert manifest["wallclock"] == {"seconds": 1.25}


class TestDeterministicView:
    def test_strips_host_dependent_sections_only(self):
        manifest = build_manifest(
            result(),
            seed=7,
            records_file="a.yrp6",
            wall_seconds=0.5,
        )
        view = deterministic_view(manifest)
        assert "wallclock" not in view
        assert "records_file" not in view
        assert set(manifest) - set(view) == {"wallclock", "records_file"}

    def test_view_is_byte_stable_across_wallclock(self):
        fast = build_manifest(result(), seed=7, wall_seconds=0.1)
        slow = build_manifest(result(), seed=7, wall_seconds=99.9)
        assert manifest_dumps(fast) != manifest_dumps(slow)
        assert manifest_dumps(deterministic_view(fast)) == manifest_dumps(
            deterministic_view(slow)
        )


class TestFileIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.manifest.json")
        manifest = build_manifest(result(), seed=7, wall_seconds=0.5)
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest
        text = open(path).read()
        assert text.endswith("\n")
        assert text == manifest_dumps(manifest)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("not json at all")
        with pytest.raises(ManifestError):
            read_manifest(str(path))

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else/9"}\n')
        with pytest.raises(ManifestError):
            read_manifest(str(path))
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(ManifestError):
            read_manifest(str(path))
