"""Discovery metrics: target-set power, EUI-64 structure.

Implements the quantities behind Figure 7 (interfaces vs probes) and
Table 7's EUI-64 columns (share of EUI-64 interface addresses and their
hop position relative to path end); Table 6's yield is
``CampaignResult.yield_per_probe``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from ..addrs.iid import IIDClass, classify_address, eui64_oui
from ..prober.campaign import CampaignResult
from .traces import build_traces


def discovery_curve(
    result: CampaignResult, points: int = 50
) -> List[Tuple[int, int]]:
    """Downsample a campaign's (probes, unique interfaces) curve to about
    ``points`` log-spaced checkpoints (Figure 7 is log-log)."""
    curve = result.curve
    if not curve:
        return []
    if len(curve) <= points:
        return list(curve)
    first_sent = max(1, curve[0][0])
    last_sent = max(first_sent + 1, curve[-1][0])
    thresholds = [
        first_sent * (last_sent / first_sent) ** (index / (points - 1))
        for index in range(points)
    ]
    sampled: List[Tuple[int, int]] = []
    cursor = 0
    for threshold in thresholds:
        while cursor < len(curve) - 1 and curve[cursor + 1][0] <= threshold:
            cursor += 1
        if not sampled or sampled[-1] != curve[cursor]:
            sampled.append(curve[cursor])
    if sampled[-1] != curve[-1]:
        sampled.append(curve[-1])
    return sampled


def eui64_interfaces(interfaces: Iterable[int]) -> List[int]:
    """The subset of interface addresses with EUI-64 identifiers."""
    return [
        addr for addr in interfaces if classify_address(addr) is IIDClass.EUI64
    ]


def eui64_share(interfaces: Iterable[int]) -> float:
    """Fraction of interface addresses that are EUI-64 (Table 7)."""
    interfaces = list(interfaces)
    if not interfaces:
        return 0.0
    return len(eui64_interfaces(interfaces)) / len(interfaces)


def oui_concentration(interfaces: Iterable[int], top: int = 2) -> float:
    """Fraction of EUI-64 interfaces from the ``top`` most common OUIs
    (the paper: 59% from just two manufacturers, Section 5.1)."""
    from collections import Counter

    ouis = Counter()
    for addr in eui64_interfaces(interfaces):
        ouis[eui64_oui(addr & ((1 << 64) - 1))] += 1
    total = sum(ouis.values())
    if not total:
        return 0.0
    return sum(count for _, count in ouis.most_common(top)) / total


def eui64_path_offsets(result: CampaignResult) -> List[int]:
    """Hop offsets of EUI-64 interfaces relative to path end.

    0 means the EUI-64 interface was the last responsive hop of its
    trace; -k means k hops before the end (Table 7's rightmost column:
    CPE routers sit at offset 0, core EUI-64 kit deeper)."""
    offsets: List[int] = []
    for trace in build_traces(result.records).values():
        length = trace.path_length
        if length == 0:
            continue
        for ttl, hop in trace.hops.items():
            if classify_address(hop) is IIDClass.EUI64:
                offsets.append(ttl - length)
    return offsets


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile on a sequence (0 for empty input)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def offset_summary(offsets: Sequence[int]) -> Tuple[float, float]:
    """(5th percentile, median) of EUI-64 path offsets (Table 7)."""
    return percentile(offsets, 0.05), percentile(offsets, 0.50)


def exclusive_interfaces(
    results: Dict[str, CampaignResult]
) -> Dict[str, set]:
    """Interfaces discovered by exactly one campaign (Table 7 "Excl Int
    Addrs"; Figure 6)."""
    from collections import Counter

    owners: Counter = Counter()
    for result in results.values():
        for interface in result.interfaces:
            owners[interface] += 1
    return {
        name: {
            interface
            for interface in result.interfaces
            if owners[interface] == 1
        }
        for name, result in results.items()
    }
