"""Prefix transformations (Section 3.1, step 2).

The ``zn`` transformation normalizes a heterogeneous seed list to a single
granularity *n*: prefixes shorter than /n are extended (base zero-filled)
to /n, prefixes longer than /n — including bare addresses, which carry an
implicit /128 — are aggregated to their covering /n.  Duplicates collapse,
so a hitlist with a thousand hosts in one /64 contributes one /64 probe
target after ``z64``.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from ..addrs.prefix import Prefix

SeedItem = Union[int, Prefix]


def as_prefix(item: SeedItem) -> Prefix:
    """Normalize a seed item (address int or Prefix) to a Prefix."""
    if isinstance(item, Prefix):
        return item
    return Prefix(item, 128)


def zn(items: Iterable[SeedItem], n: int) -> List[Prefix]:
    """Apply the ``zn`` transformation; result is sorted and de-duplicated."""
    if not 0 <= n <= 128:
        raise ValueError("zn level out of range: %r" % n)
    seen = set()
    result: List[Prefix] = []
    for item in items:
        prefix = as_prefix(item)
        if prefix.length < n:
            prefix = prefix.extend(n)
        elif prefix.length > n:
            prefix = prefix.truncate(n)
        if prefix not in seen:
            seen.add(prefix)
            result.append(prefix)
    result.sort()
    return result
