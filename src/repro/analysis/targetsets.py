"""Campaign-level target-set accounting: Tables 5 and 7, Figures 2 and 6.

Bridges target sets / campaign results with the generic set-feature
machinery in :mod:`repro.addrs.sets`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from ..addrs.sets import SetFeatures, characterize_sets
from ..addrs.trie import PrefixTrie
from ..hitlist.pipeline import TargetSet
from ..prober.campaign import CampaignResult


def characterize_target_sets(
    target_sets: Mapping[str, TargetSet],
    bgp: PrefixTrie,
    exclusive_among: Optional[Sequence[str]] = None,
) -> Dict[str, SetFeatures]:
    """Table 5: per-target-set features with exclusivity accounting."""
    return characterize_sets(
        {name: target_set.addresses for name, target_set in target_sets.items()},
        bgp,
        exclusive_among=exclusive_among,
    )


class CampaignFeatures:
    """Result-side features of one campaign (a Table 7 row's set stats)."""

    __slots__ = (
        "name",
        "interfaces",
        "bgp_prefixes",
        "asns",
        "exclusive_interfaces",
        "exclusive_prefixes",
        "exclusive_asns",
    )

    def __init__(self, name: str):
        self.name = name
        self.interfaces: Set[int] = set()
        self.bgp_prefixes: Set = set()
        self.asns: Set[int] = set()
        self.exclusive_interfaces: Set[int] = set()
        self.exclusive_prefixes: Set = set()
        self.exclusive_asns: Set[int] = set()


def characterize_results(
    results: Mapping[str, CampaignResult],
    registry: PrefixTrie,
) -> Dict[str, CampaignFeatures]:
    """Attribute each campaign's discovered interfaces to BGP/RIR prefixes
    and ASNs, and compute cross-campaign exclusivity (Figure 6)."""
    interface_owners: Counter = Counter()
    prefix_owners: Dict[object, Set[str]] = {}
    asn_owners: Dict[int, Set[str]] = {}
    features: Dict[str, CampaignFeatures] = {}
    lookup_cache: Dict[int, Optional[Tuple[object, int]]] = {}

    for name, result in results.items():
        summary = CampaignFeatures(name)
        summary.interfaces = set(result.interfaces)
        for interface in summary.interfaces:
            interface_owners[interface] += 1
            if interface in lookup_cache:
                match = lookup_cache[interface]
            else:
                match = registry.longest_match(interface)
                lookup_cache[interface] = match
            if match is None:
                continue
            prefix, asn = match
            summary.bgp_prefixes.add(prefix)
            summary.asns.add(asn)
            prefix_owners.setdefault(prefix, set()).add(name)
            asn_owners.setdefault(asn, set()).add(name)
        features[name] = summary

    for name, summary in features.items():
        summary.exclusive_interfaces = {
            interface
            for interface in summary.interfaces
            if interface_owners[interface] == 1
        }
        summary.exclusive_prefixes = {
            prefix
            for prefix in summary.bgp_prefixes
            if prefix_owners[prefix] == {name}
        }
        summary.exclusive_asns = {
            asn for asn in summary.asns if asn_owners[asn] == {name}
        }
    return features
