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
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..addrs.prefix import Prefix
from ..addrs.trie import PrefixTrie
from ..netsim.engine import pps_interval
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


def _is_echo_reply(data: bytes) -> bool:
    try:
        _, payload = ipv6.split_packet(data)
        return icmpv6.ICMPv6Message.unpack(payload).is_echo_reply
    except ipv6.PacketError:
        return False


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
    interval = pps_interval(config.pps)
    for prefix in prefixes:
        if prefix.length != 64:
            raise ValueError("aliased-prefix detection probes /64s, got %s" % prefix)

    # Only counts are kept, so each reply is read as it is answered.
    answered: Dict[Prefix, int] = {prefix: 0 for prefix in prefixes}
    now = 0
    for prefix in prefixes:
        for index in range(config.probes_per_prefix):
            target = prefix.base | (rng.getrandbits(64) or 1)
            echo = icmpv6.echo_request(index + 1, index, b"dealias")
            packet = ipv6.build_packet(
                IPv6Header(vantage.address, target, 0, PROTO_ICMPV6, hop_limit=64),
                echo.pack(vantage.address, target),
            )
            reply = internet.answer(packet, now)
            if reply is not None and _is_echo_reply(reply[1]):
                answered[prefix] += 1
            now += interval

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
