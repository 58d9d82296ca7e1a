"""kIP aggregation-based address anonymization (Plonka & Berger 2017).

The CDN seed in the paper is not a list of client addresses — privacy
forbids that — but a list of *aggregates*: prefixes each covering at
least ``k`` simultaneously-assigned /64 prefixes, where "simultaneous" is
judged at the ``p``-th percentile of activity intervals across a
measurement window.  The paper uses k=32 and k=256 variants (``kn``
transformations, Section 3.1).

Implementation: observations are (address, interval) pairs, reduced to
per-/64 activity vectors.  A binary-trie descent emits the deepest
prefixes whose percentile simultaneous-/64 count still meets ``k``.
Whenever a split would strand a below-``k`` child, the parent prefix is
emitted as a coarse catch-all covering the stragglers (aggregates may
therefore overlap; each still individually guarantees >= k).  Dense
client space thus yields *fine* aggregates while sparse regions appear
only under coarse spans — the paper's university anecdote, where an
entire campus hid inside one /41 aggregate (Section 6), falls out of
exactly this behaviour.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..addrs.address import ADDRESS_BITS
from ..addrs.prefix import Prefix

#: Bits identifying a /64 (the high half of the address).
_SLASH64_BITS = 64


@dataclass(frozen=True)
class KIPParams:
    """kIP parameters: ``w`` window days, ``i`` interval hours, ``k``
    simultaneously-assigned /64s, ``p`` percentile (the paper's defaults:
    w=14, i=1, p=50)."""

    k: int = 32
    window_days: int = 14
    interval_hours: int = 1
    percentile: float = 50.0

    @property
    def intervals(self) -> int:
        return max(1, (self.window_days * 24) // self.interval_hours)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")


def kip_aggregate(
    observations: Iterable[Tuple[int, int]], params: KIPParams
) -> List[Prefix]:
    """Aggregate (address, interval) observations into k-anonymous prefixes.

    Every returned prefix covers, at the configured percentile of
    intervals, at least ``params.k`` simultaneously active /64s; returned
    prefixes are disjoint and jointly cover every active /64.  If the
    whole input cannot meet ``k``, the result is empty (nothing may be
    released).
    """
    import numpy as np  # loaded by its one user, not by ``import repro.hitlist``

    n_intervals = params.intervals
    per64: Dict[int, Set[int]] = {}
    for addr, interval in observations:
        per64.setdefault(addr >> _SLASH64_BITS, set()).add(interval % n_intervals)
    if not per64:
        return []

    bases = sorted(per64)
    count = len(bases)
    activity = np.zeros((count, n_intervals), dtype=np.int32)
    for row, base in enumerate(bases):
        for interval in per64[base]:
            activity[row, interval] = 1
    # cumulative[i] = per-interval active counts among the first i rows.
    cumulative = np.vstack(
        [np.zeros((1, n_intervals), dtype=np.int64), np.cumsum(activity, axis=0)]
    )

    def metric(lo: int, hi: int) -> float:
        counts = cumulative[hi] - cumulative[lo]
        return float(np.percentile(counts, params.percentile))

    if metric(0, count) < params.k:
        return []

    aggregates: List[Prefix] = []

    def emit(bits: int, length: int) -> None:
        aggregates.append(
            Prefix(bits << (ADDRESS_BITS - length) if length else 0, length)
        )

    def walk(lo: int, hi: int, bits: int, length: int) -> None:
        """Invariant: metric(lo, hi) >= k."""
        while length < _SLASH64_BITS:
            next_length = length + 1
            boundary = ((bits << 1) | 1) << (_SLASH64_BITS - next_length)
            mid = bisect_left(bases, boundary, lo, hi)
            left, right = mid > lo, hi > mid
            if left and right:
                left_ok = metric(lo, mid) >= params.k
                right_ok = metric(mid, hi) >= params.k
                if left_ok and right_ok:
                    walk(lo, mid, bits << 1, next_length)
                    walk(mid, hi, (bits << 1) | 1, next_length)
                    return
                if left_ok or right_ok:
                    # The dense side refines further; the stragglers are
                    # covered by a catch-all at this node's granularity.
                    emit(bits, length)
                    if left_ok:
                        walk(lo, mid, bits << 1, next_length)
                    else:
                        walk(mid, hi, (bits << 1) | 1, next_length)
                    return
                emit(bits, length)
                return
            # One-sided: descend without emitting (identical activity).
            bits = (bits << 1) | (0 if left else 1)
            length = next_length
        emit(bits, length)

    walk(0, count, 0, 0)
    return sorted(set(aggregates))


def coverage(aggregates: Sequence[Prefix], addresses: Iterable[int]) -> float:
    """Fraction of the given addresses covered by the aggregates.

    Aggregates may nest/overlap (catch-alls), so containment is resolved
    with a radix trie rather than positional search.
    """
    addresses = list(addresses)
    if not addresses:
        return 0.0
    from ..addrs.trie import PrefixTrie

    trie: PrefixTrie = PrefixTrie()
    for prefix in aggregates:
        trie.insert(prefix, True)
    covered = sum(1 for addr in addresses if trie.covers(addr))
    return covered / len(addresses)
