"""Target synthesis (Section 3.1, step 3): intermediate prefixes → target
addresses, by choice of interface identifier."""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from ..addrs.address import FIXED_IID, LOWBYTE1_IID
from ..addrs.prefix import Prefix


def lowbyte1(prefixes: Iterable[Prefix]) -> List[int]:
    """Bitwise-OR each prefix base with the ``::1`` IID (the strategy
    production systems like CAIDA Ark and RIPE Atlas use)."""
    return _synthesize(prefixes, LOWBYTE1_IID)


def fixediid(prefixes: Iterable[Prefix]) -> List[int]:
    """Bitwise-OR each prefix base with the fixed pseudo-random IID
    ``:1234:5678:1234:5678`` — unlikely to hit an active host, which is
    what the paper chooses for its campaigns (Sections 3.3, 4.3)."""
    return _synthesize(prefixes, FIXED_IID)


def random_iid(prefixes: Iterable[Prefix], seed: int = 0) -> List[int]:
    """A fresh random IID per prefix (one of Section 3.3's candidates)."""
    rng = random.Random(seed)
    seen = set()
    result = []
    for prefix in prefixes:
        addr = prefix.base | (rng.getrandbits(64) or 1)
        if addr not in seen:
            seen.add(addr)
            result.append(addr)
    return result


def known(
    prefixes: Iterable[Prefix], seed_addresses: Sequence[int]
) -> List[int]:
    """Pick a known seed address within each prefix when one exists, else
    fall back to ``::1`` (the Fiebig "known address" trial of Table 4)."""
    ordered = sorted(set(seed_addresses))
    seen = set()
    result = []
    from bisect import bisect_left

    for prefix in prefixes:
        index = bisect_left(ordered, prefix.base)
        if index < len(ordered) and prefix.contains(ordered[index]):
            addr = ordered[index]
        else:
            addr = prefix.base | LOWBYTE1_IID
        if addr not in seen:
            seen.add(addr)
            result.append(addr)
    return result


def _synthesize(prefixes: Iterable[Prefix], iid: int) -> List[int]:
    seen = set()
    result = []
    for prefix in prefixes:
        addr = prefix.base | iid
        if addr not in seen:
            seen.add(addr)
            result.append(addr)
    return result


#: Synthesis method registry, keyed by the paper's names.
METHODS = {
    "lowbyte1": lowbyte1,
    "fixediid": fixediid,
}


def synthesize(
    prefixes: Iterable[Prefix],
    method: str,
    seed_addresses: Optional[Sequence[int]] = None,
) -> List[int]:
    """Dispatch by method name: lowbyte1 | fixediid | random | known."""
    if method in METHODS:
        return METHODS[method](prefixes)
    if method == "random":
        return random_iid(prefixes)
    if method == "known":
        return known(prefixes, seed_addresses or [])
    raise ValueError("unknown synthesis method %r" % method)
