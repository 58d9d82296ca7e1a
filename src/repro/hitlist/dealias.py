"""Aliased-prefix detection (Gasser et al., IMC 2018 — cited in §2).

Some prefixes answer for *every* address — CDN front-ends, middleboxes,
honeypots.  A hitlist that doesn't remove them "discovers" unbounded
phantom hosts and wastes probes; Gasser et al.'s unbiased hitlist work
filters them by probing several pseudorandom IIDs per candidate /64 and
declaring the prefix aliased when all respond.

:func:`detect_aliased` runs that test through the packet-level
simulator; :func:`filter_hitlist` removes covered items from a seed or
target list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from ..addrs.prefix import Prefix
from ..addrs.trie import PrefixTrie
from ..netsim.engine import Engine, pps_interval
from ..netsim.internet import Internet
from ..packet import icmpv6, ipv6
from ..packet.ipv6 import PROTO_ICMPV6, IPv6Header
from .transform import SeedItem, as_prefix


@dataclass
class DealiasConfig:
    """Detection parameters (Gasser et al. use 16 probes per prefix)."""

    probes_per_prefix: int = 16
    pps: float = 2000.0
    #: Declare aliased when at least this fraction of random IIDs answer.
    threshold: float = 1.0
    seed: int = 0xA11A5


def detect_aliased(
    internet: Internet,
    vantage_name: str,
    prefixes: Sequence[Prefix],
    config: DealiasConfig = DealiasConfig(),
) -> Set[Prefix]:
    """Return the subset of /64 ``prefixes`` that are aliased.

    Each prefix receives ``probes_per_prefix`` Echo Requests at fresh
    pseudorandom IIDs; a genuine LAN leaves random IIDs unanswered, an
    aliased prefix answers them all.
    """
    rng = random.Random(config.seed)
    vantage = internet.vantage(vantage_name)
    engine = Engine()
    interval = pps_interval(config.pps)
    answered: Dict[Prefix, int] = {prefix: 0 for prefix in prefixes}

    def deliver(prefix: Prefix, data: bytes) -> None:
        try:
            header, payload = ipv6.split_packet(data)
            message = icmpv6.ICMPv6Message.unpack(payload)
        except ipv6.PacketError:
            return
        if message.is_echo_reply:
            answered[prefix] += 1

    for prefix in prefixes:
        if prefix.length != 64:
            raise ValueError("aliased-prefix detection probes /64s, got %s" % prefix)

    def sweep() -> Iterator[int]:
        for prefix in prefixes:
            for index in range(config.probes_per_prefix):
                target = prefix.base | (rng.getrandbits(64) or 1)
                echo = icmpv6.echo_request(index + 1, index, b"dealias")
                packet = ipv6.build_packet(
                    IPv6Header(vantage.address, target, 0, PROTO_ICMPV6, hop_limit=64),
                    echo.pack(vantage.address, target),
                )
                internet.exchange(
                    engine,
                    packet,
                    engine.now,
                    lambda data, sent_at, prefix=prefix: deliver(prefix, data),
                )
                yield interval

    engine.drive(sweep())
    engine.run()

    needed = config.threshold * config.probes_per_prefix
    return {prefix for prefix, count in answered.items() if count >= needed}


def filter_hitlist(
    items: Iterable[SeedItem], aliased: Iterable[Prefix]
) -> Tuple[List[SeedItem], int]:
    """Drop hitlist items covered by aliased prefixes.

    Returns (kept items, removed count).
    """
    trie: PrefixTrie = PrefixTrie()
    for prefix in aliased:
        trie.insert(prefix, True)
    kept: List[SeedItem] = []
    removed = 0
    for item in items:
        prefix = as_prefix(item)
        if trie.covers(prefix.base):
            removed += 1
        else:
            kept.append(item)
    return kept, removed


def candidate_prefixes(items: Iterable[SeedItem]) -> List[Prefix]:
    """The unique /64s a hitlist touches — the detection candidates."""
    seen: Set[Prefix] = set()
    for item in items:
        prefix = as_prefix(item)
        base64 = Prefix(prefix.base, 64) if prefix.length >= 64 else None
        if base64 is not None:
            seen.add(base64)
    return sorted(seen)
