"""Campaign output serialization (the ``.yrp6`` row format).

The real Yarrp decouples probing from analysis by writing one text row
per response; topology construction happens offline over that file.  We
keep the same contract so campaigns can be persisted, shipped, merged,
and re-analyzed without rerunning:

* ``#``-prefixed header lines carry campaign metadata (key: value);
* each data row is tab-separated:
  ``target  received_us  type  code  ttl  hop  rtt_us  flags``
  with addresses in canonical text form and flags ``M`` (target
  modified en route) or ``-``.

Readers are forgiving: unknown header keys are preserved, blank lines
skipped, malformed rows counted and skipped rather than fatal.
"""

from __future__ import annotations

import io
from typing import Callable, Dict, Iterable, List, Optional, TextIO, Tuple, TypeVar

from ..addrs import address
from ..packet import icmpv6
from .campaign import CampaignResult
from .records import ProbeRecord

#: Format identifier written as the first header line.
FORMAT_VERSION = "yrp6/1"

_K = TypeVar("_K")
_V = TypeVar("_V")


class OutputError(ValueError):
    """Raised for unreadable output files; :func:`load_campaign`'s message
    is ``path: reason``."""


class _Memo(Dict[_K, _V]):
    """A dict local to one call that fills a missing key with ``compute(key)``.

    A key whose computation raises is not stored, so every occurrence of
    a malformed input raises (and is counted) on its own.
    """

    def __init__(self, compute: Callable[[_K], _V]) -> None:
        self.compute = compute

    def __missing__(self, key: _K) -> _V:
        value = self[key] = self.compute(key)
        return value


def write_records(
    sink: TextIO,
    records: Iterable[ProbeRecord],
    metadata: Optional[Dict[str, str]] = None,
) -> int:
    """Write records as rows; returns the number written."""
    sink.write("# %s\n" % FORMAT_VERSION)
    for key, value in (metadata or {}).items():
        # Keys are interpolated into header lines exactly like values: a
        # newline in either would silently split one header into two.
        if "\n" in str(key):
            raise OutputError("metadata keys must be single-line: %r" % key)
        if "\n" in str(value):
            raise OutputError("metadata values must be single-line: %r" % key)
        sink.write("# %s: %s\n" % (key, value))
    sink.write(
        "# columns: target received_us type code ttl hop rtt_us flags\n"
    )
    # Hops (and, per TTL, targets) repeat across rows: format each
    # distinct address once per call.
    text = _Memo(address.format_address)
    count = 0
    for record in records:
        sink.write(
            "%s\t%d\t%d\t%d\t%d\t%s\t%d\t%s\n"
            % (
                text[record.target],
                record.received_at,
                record.icmp_type,
                record.icmp_code,
                record.ttl,
                text[record.hop],
                record.rtt_us,
                "M" if record.target_modified else "-",
            )
        )
        count += 1
    return count


def write_campaign(sink: TextIO, result: CampaignResult) -> int:
    """Write a campaign with its standard metadata block."""
    metadata = {
        "name": result.name,
        "vantage": result.vantage,
        "prober": result.prober,
        "pps": "%g" % result.pps,
        "targets": str(result.targets),
        "sent": str(result.sent),
        "duration_us": str(result.duration_us),
    }
    return write_records(sink, result.records, metadata)


class LoadedCampaign:
    """A parsed output file."""

    __slots__ = ("metadata", "records", "skipped_rows")

    def __init__(self, metadata: Dict[str, str], records: List[ProbeRecord], skipped_rows: int) -> None:
        self.metadata = metadata
        self.records = records
        self.skipped_rows = skipped_rows

    @property
    def interfaces(self) -> set:
        """Unique Time Exceeded sources, as everywhere else."""
        return {
            record.hop
            for record in self.records
            if record.icmp_type == icmpv6.TYPE_TIME_EXCEEDED
        }


def _label_for(type_code: Tuple[int, int]) -> str:
    return icmpv6.response_label(*type_code)


def read_records(source: TextIO) -> LoadedCampaign:
    """Parse an output stream written by :func:`write_records`."""
    first = source.readline()
    if not first.startswith("#") or FORMAT_VERSION not in first:
        raise OutputError(
            ("not a %s file" if first else "empty file, not a %s file")
            % FORMAT_VERSION
        )
    metadata: Dict[str, str] = {}
    records: List[ProbeRecord] = []
    skipped = 0
    # Parse each distinct address text (full validation) and classify
    # each distinct (type, code) once per call.
    parsed = _Memo(address.parse)
    labels = _Memo(_label_for)
    for line in source:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                metadata[key.strip()] = value.strip()
            continue
        fields = line.split("\t")
        if len(fields) != 8:
            skipped += 1
            continue
        try:
            target = parsed[fields[0]]
            received = int(fields[1])
            icmp_type = int(fields[2])
            icmp_code = int(fields[3])
            ttl = int(fields[4])
            hop = parsed[fields[5]]
            rtt = int(fields[6])
            modified = fields[7] == "M"
        except (ValueError, address.AddressError):
            skipped += 1
            continue
        records.append(
            ProbeRecord(
                target=target,
                ttl=ttl,
                hop=hop,
                icmp_type=icmp_type,
                icmp_code=icmp_code,
                label=labels[icmp_type, icmp_code],
                rtt_us=rtt,
                received_at=received,
                target_modified=modified,
            )
        )
    return LoadedCampaign(metadata, records, skipped)


def save_campaign(path: str, result: CampaignResult) -> int:
    """Write a campaign to ``path``; returns rows written."""
    with open(path, "w") as sink:
        return write_campaign(sink, result)


def load_campaign(path: str) -> LoadedCampaign:
    """Read a campaign output file from ``path``."""
    with open(path) as source:
        try:
            return read_records(source)
        except (OutputError, UnicodeDecodeError) as error:
            raise OutputError("%s: %s" % (path, error)) from None


def dumps(result: CampaignResult) -> str:
    """Campaign output as a string (for tests and piping)."""
    buffer = io.StringIO()
    write_campaign(buffer, result)
    return buffer.getvalue()


def loads(text: str) -> LoadedCampaign:
    """Parse campaign output from a string."""
    return read_records(io.StringIO(text))
