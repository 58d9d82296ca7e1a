"""Target-set algebra: coverage, exclusivity and feature accounting.

The paper characterizes target sets along several "features" (Table 5,
Figures 2 and 6): unique targets, routed targets (covered by a BGP
prefix), represented BGP prefixes and ASNs, 6to4 addresses, and for each
feature the portion *exclusive* to a single set.  This module computes all
of those given a collection of named address sets and a routing table.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from .prefix import Prefix
from .trie import PrefixTrie

#: 2002::/16 — the 6to4 transition prefix the paper tallies per set.
SIXTOFOUR = Prefix.parse("2002::/16")


class SetFeatures:
    """Feature summary of one named target set (one row of Table 5)."""

    __slots__ = (
        "name",
        "unique_targets",
        "routed_targets",
        "bgp_prefixes",
        "asns",
        "sixtofour",
        "exclusive_targets",
        "exclusive_routed",
        "exclusive_prefixes",
        "exclusive_asns",
    )

    def __init__(self, name: str):
        self.name = name
        self.unique_targets = 0
        self.routed_targets = 0
        self.bgp_prefixes: Set[Prefix] = set()
        self.asns: Set[int] = set()
        self.sixtofour = 0
        self.exclusive_targets = 0
        self.exclusive_routed = 0
        self.exclusive_prefixes: Set[Prefix] = set()
        self.exclusive_asns: Set[int] = set()

    def as_dict(self) -> Dict[str, int]:
        """Numeric view suitable for table rendering."""
        return {
            "unique_targets": self.unique_targets,
            "exclusive_targets": self.exclusive_targets,
            "routed_targets": self.routed_targets,
            "exclusive_routed": self.exclusive_routed,
            "bgp_prefixes": len(self.bgp_prefixes),
            "exclusive_prefixes": len(self.exclusive_prefixes),
            "asns": len(self.asns),
            "exclusive_asns": len(self.exclusive_asns),
            "sixtofour": self.sixtofour,
        }


def characterize_sets(
    sets: Mapping[str, Iterable[int]],
    bgp: PrefixTrie,
    exclusive_among: Optional[Sequence[str]] = None,
) -> Dict[str, SetFeatures]:
    """Compute per-set features and cross-set exclusivity.

    ``bgp`` maps advertised prefixes to origin ASNs.  ``exclusive_among``
    names the subset of sets participating in exclusivity accounting; the
    paper excludes derived collections (Combined, TUM) so they do not mask
    the exclusive contributions of their constituents.
    """
    frozen: Dict[str, Set[int]] = {name: set(values) for name, values in sets.items()}
    participants = list(exclusive_among) if exclusive_among is not None else list(frozen)

    target_owners: Counter = Counter()
    routed_owners: Counter = Counter()
    prefix_owners: Dict[Prefix, Set[str]] = defaultdict(set)
    asn_owners: Dict[int, Set[str]] = defaultdict(set)

    results: Dict[str, SetFeatures] = {}
    routed_cache: Dict[int, Optional[Tuple[Prefix, int]]] = {}

    for name, addresses in frozen.items():
        features = SetFeatures(name)
        features.unique_targets = len(addresses)
        participating = name in participants
        for value in addresses:
            if value in routed_cache:
                match = routed_cache[value]
            else:
                match = bgp.longest_match(value)
                routed_cache[value] = match
            if SIXTOFOUR.contains(value):
                features.sixtofour += 1
            if match is None:
                continue
            prefix, asn = match
            features.routed_targets += 1
            features.bgp_prefixes.add(prefix)
            features.asns.add(asn)
            if participating:
                prefix_owners[prefix].add(name)
                asn_owners[asn].add(name)
        if participating:
            for value in addresses:
                target_owners[value] += 1
                if routed_cache[value] is not None:
                    routed_owners[value] += 1
        results[name] = features

    for name in participants:
        features = results[name]
        addresses = frozen[name]
        features.exclusive_targets = sum(
            1 for value in addresses if target_owners[value] == 1
        )
        features.exclusive_routed = sum(
            1
            for value in addresses
            if routed_cache[value] is not None and routed_owners[value] == 1
        )
        features.exclusive_prefixes = {
            prefix
            for prefix in features.bgp_prefixes
            if prefix_owners[prefix] == {name}
        }
        features.exclusive_asns = {
            asn for asn in features.asns if asn_owners[asn] == {name}
        }
    return results
