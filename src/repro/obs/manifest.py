"""Run manifests: one JSON document describing a campaign run.

A manifest is written next to the ``.yrp6`` record file and captures
everything needed to reproduce and audit the run: the world spec and
seed, the prober setup, the headline result counters, the full metrics
dump, and — in its own clearly quarantined section — the wall-clock
duration measured at the top-level boundary via
:mod:`repro.obs.wallclock`.

Everything except the ``wallclock`` and ``failures`` sections is a pure
function of the spec: :func:`deterministic_view` strips those, and
:func:`manifest_dumps` of the stripped view is byte-identical across
reruns and across parallel shard counts (for decoupled worlds, the same
contract as ``run_parallel``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from .metrics import MetricDump

if TYPE_CHECKING:  # avoid a runtime package cycle: obs never imports prober
    from ..prober.campaign import CampaignResult

#: Format identifier, bumped on breaking schema changes.
MANIFEST_FORMAT = "repro-manifest/1"

Manifest = Dict[str, Any]


class ManifestError(ValueError):
    """Raised for unreadable or wrong-format manifest files; the message
    is ``path: reason``."""


def build_manifest(
    result: "CampaignResult",
    seed: int,
    metrics: Optional[MetricDump] = None,
    world: Optional[Dict[str, Any]] = None,
    records_file: Optional[str] = None,
    workers: int = 1,
    contract: str = "exact",
    wall_seconds: Optional[float] = None,
    wall_profile: Optional[Dict[str, Any]] = None,
    failures: Optional[Dict[str, Any]] = None,
) -> Manifest:
    """Assemble the manifest document for one finished campaign."""
    manifest: Manifest = {
        "format": MANIFEST_FORMAT,
        "run": {
            "name": result.name,
            "vantage": result.vantage,
            "prober": result.prober,
            "pps": result.pps,
            "targets": result.targets,
            "sent": result.sent,
            "responses": len(result.records),
            "interfaces": len(result.interfaces),
            "duration_us": result.duration_us,
            "workers": workers,
            "contract": contract,
        },
        "seed": seed,
        "summary": dict(result.summary),
        "metrics": metrics if metrics is not None else {},
    }
    if world is not None:
        manifest["world"] = world
    if records_file is not None:
        manifest["records_file"] = records_file
    if failures is not None:
        # The supervised runner's FailureReport: which workers crashed,
        # timed out or vanished, and what the supervisor did about it.
        # Host-dependent (a fact about this machine's scheduler and
        # memory pressure, not about the spec), so deterministic_view
        # strips it like the wallclock block.
        manifest["failures"] = failures
    if wall_seconds is not None or wall_profile is not None:
        # Host-dependent numbers live under ONE quarantined key, so
        # deterministic_view strips the whole block (profile included).
        wallclock: Dict[str, Any] = {}
        if wall_seconds is not None:
            wallclock["seconds"] = wall_seconds
        if wall_profile is not None:
            wallclock["profile"] = wall_profile
        manifest["wallclock"] = wallclock
    return manifest


def deterministic_view(manifest: Manifest) -> Manifest:
    """The manifest minus host-dependent fields (the wall-clock section,
    the records-file path, and the supervision failure report): the part
    covered by byte-identity."""
    return {
        key: value
        for key, value in manifest.items()
        if key not in ("wallclock", "records_file", "failures")
    }


def manifest_dumps(manifest: Manifest) -> str:
    """Canonical JSON: sorted keys, stable separators, trailing newline."""
    return (
        json.dumps(manifest, sort_keys=True, separators=(",", ": "), indent=1)
        + "\n"
    )


def write_manifest(path: str, manifest: Manifest) -> None:
    with open(path, "w") as sink:
        sink.write(manifest_dumps(manifest))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float))


def _is_numbers(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_pairs(value: Any) -> bool:
    """``[[key, amount], ...]``: a counter map's values, a series' points."""
    return isinstance(value, list) and all(
        _is_numbers(pair) and len(pair) == 2 for pair in value
    )


#: field -> the shape its value must have (None: any value, but present)
_Fields = Dict[str, Optional[Callable[[Any], bool]]]

#: Metric kind -> the fields of its dump entry (``Metric.payload``) a
#: reader of the manifest indexes, each with the shape it must have.
_KIND_FIELDS: Dict[str, _Fields] = {
    "counter": {"value": _is_number},
    "counter_map": {"values": _is_pairs},
    "gauge": {"last": None, "min": None, "max": None},
    "histogram": {"counts": _is_numbers},
    "series": {"points": _is_pairs},
}

#: One row of a wall-clock profile's phase table (``to_profile_dict``).
_PHASE_FIELDS: _Fields = {
    "path": None,
    "count": None,
    "self_seconds": _is_number,
    "total_seconds": _is_number,
}


def _object(value: Any, where: str, fields: Optional[_Fields] = None) -> Dict[str, Any]:
    """``value``, when it is a JSON object carrying every one of
    ``fields`` in shape; ``ValueError(reason)`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError("%s must be an object, not %s" % (where, json.dumps(value)))
    for field, in_shape in (fields or {}).items():
        if field not in value or (in_shape and not in_shape(value[field])):
            raise ValueError("%s has no well-formed %r" % (where, field))
    return value


def _check_metrics(dump: Any, where: str) -> None:
    for name, entry in _object(dump, where).items():
        kind = _object(entry, "%s[%r]" % (where, name)).get("kind")
        if isinstance(kind, str):
            _object(entry, "%s %s[%r]" % (kind, where, name), _KIND_FIELDS.get(kind))


def read_manifest(path: str) -> Manifest:
    """The manifest at ``path``, with the shape readers index checked:
    ``run``, ``failures`` and ``wallclock`` are objects, every metric
    entry (the failures block's too) carries its kind's fields, a profile's
    phase rows theirs.  Anything else is a :class:`ManifestError`."""
    with open(path) as source:
        try:
            data = json.load(source)
        except ValueError as error:  # bad JSON, or bytes that are not text
            raise ManifestError(
                "%s: not a JSON manifest: %s" % (path, error)
            ) from error
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ManifestError("%s: not a %s file" % (path, MANIFEST_FORMAT))
    try:
        _object(data.get("run", {}), "run")
        _check_metrics(data.get("metrics", {}), "metrics")
        failures = _object(data.get("failures", {}), "failures")
        _check_metrics(failures.get("metrics", {}), "failures.metrics")
        wallclock = _object(data.get("wallclock", {}), "wallclock")
        if "seconds" in wallclock:
            _object(wallclock, "wallclock", {"seconds": _is_number})
        profile = _object(wallclock.get("profile", {}), "wallclock.profile")
        phases = profile.get("phases", [])
        if not isinstance(phases, list):
            raise ValueError("wallclock.profile.phases must be a list")
        for row in phases:
            _object(row, "wallclock.profile.phases row", _PHASE_FIELDS)
    except ValueError as error:
        raise ManifestError("%s: %s" % (path, error)) from None
    return data
