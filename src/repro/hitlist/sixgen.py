"""6Gen-style target generation (Murdock et al., IMC 2017).

6Gen exploits address locality: known-active seeds cluster, and new
active addresses are likelier near dense clusters.  The algorithm grows
per-nybble *ranges* around seed clusters and enumerates candidate
addresses from the densest ranges, in one of two modes:

* **tight** clustering — each nybble position takes the contiguous
  [min, max] span of values observed at that position in the cluster;
* **loose** clustering — each nybble position takes exactly the *set* of
  observed values (a wildcard-like "any seen value here").

This is a faithful-in-spirit reimplementation scaled for simulation: we
cluster seeds at a configurable prefix granularity, grow ranges per
cluster, rank clusters by seed density, and enumerate up to a budget.
The paper feeds 6Gen with CAIDA probing results and probes the output in
loose mode.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Nybbles in an IPv6 address.
_NYBBLES = 32


@dataclass(frozen=True)
class SixGenConfig:
    """Generation parameters."""

    #: "loose" (observed value sets) or "tight" (contiguous spans).
    mode: str = "loose"
    #: Prefix granularity (bits) at which seeds are grouped into clusters.
    cluster_bits: int = 48
    #: Minimum seeds for a cluster to participate.
    min_cluster_size: int = 2
    #: Total generation budget (addresses across all clusters).
    budget: int = 100_000
    #: Per-cluster cap, keeping one huge cluster from eating the budget.
    per_cluster_cap: int = 4_096
    #: RNG seed for sampling inside over-large ranges.
    seed: int = 6

    def __post_init__(self):
        if self.mode not in ("loose", "tight"):
            raise ValueError("mode must be 'loose' or 'tight'")
        if not 0 < self.cluster_bits <= 128 or self.cluster_bits % 4:
            raise ValueError("cluster_bits must be a positive multiple of 4 <= 128")
        for name in ("min_cluster_size", "budget", "per_cluster_cap"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0, not %d" % (name, getattr(self, name)))


def _nybbles(value: int) -> Tuple[int, ...]:
    return tuple((value >> shift) & 0xF for shift in range(124, -4, -4))


def _from_nybbles(nybbles: Sequence[int]) -> int:
    value = 0
    for nybble in nybbles:
        value = (value << 4) | nybble
    return value


class NybbleRange:
    """A per-position value range grown from a seed cluster."""

    __slots__ = ("choices",)

    def __init__(self, seeds: Sequence[int], mode: str):
        columns = list(zip(*[_nybbles(seed) for seed in seeds]))
        self.choices: List[Tuple[int, ...]] = []
        for column in columns:
            observed = sorted(set(column))
            if mode == "tight" and len(observed) > 1:
                observed = list(range(observed[0], observed[-1] + 1))
            self.choices.append(tuple(observed))

    @property
    def size(self) -> int:
        """Number of addresses the range denotes."""
        total = 1
        for choice in self.choices:
            total *= len(choice)
            if total > 1 << 62:
                return 1 << 62
        return total

    def enumerate(self, limit: int, rng: random.Random) -> List[int]:
        """Up to ``limit`` addresses from the range; exhaustive when the
        range is small, uniformly sampled otherwise."""
        if self.size <= limit:
            return [
                _from_nybbles(combo)
                for combo in itertools.product(*self.choices)
            ]
        result: Set[int] = set()
        attempts = 0
        while len(result) < limit and attempts < limit * 4:
            combo = [rng.choice(choice) for choice in self.choices]
            result.add(_from_nybbles(combo))
            attempts += 1
        return sorted(result)


def generate(seeds: Iterable[int], config: SixGenConfig = SixGenConfig()) -> List[int]:
    """Generate candidate target addresses from seed addresses.

    Clusters are ranked by seed count (densest first); generation stops at
    ``config.budget``.  Original seeds are always included in the output
    (6Gen's output contains its inputs).
    """
    rng = random.Random(config.seed)
    shift = 128 - config.cluster_bits
    clusters: Dict[int, List[int]] = {}
    for seed in set(seeds):
        clusters.setdefault(seed >> shift, []).append(seed)

    ranked = sorted(clusters.values(), key=len, reverse=True)
    output: Set[int] = set()
    for members in ranked:
        output.update(members)

    budget = max(0, config.budget - len(output))
    for members in ranked:
        if budget <= 0:
            break
        if len(members) < config.min_cluster_size:
            continue
        span = NybbleRange(members, config.mode)
        take = min(config.per_cluster_cap, budget)
        generated = span.enumerate(take, rng)
        fresh = [addr for addr in generated if addr not in output]
        fresh = fresh[:budget]
        output.update(fresh)
        budget -= len(fresh)
    return sorted(output)


def cluster_densities(
    seeds: Iterable[int], cluster_bits: int = 48
) -> Dict[int, int]:
    """Seed count per cluster prefix-bits value (diagnostics)."""
    shift = 128 - cluster_bits
    result: Dict[int, int] = {}
    for seed in set(seeds):
        key = seed >> shift
        result[key] = result.get(key, 0) + 1
    return result
