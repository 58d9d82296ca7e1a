"""The individual synthetic seed sources (Section 3.2).

Each function samples the ground-truth internet the way its real-world
counterpart observes the real one.  All randomness is drawn from a seeded
RNG derived from the internet's seed, so a given world yields the same
hitlists every time.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..addrs.iid import IIDClass, classify_address
from ..hitlist.kip import KIPParams, kip_aggregate
from ..hitlist.sixgen import SixGenConfig, generate
from ..hitlist.synthesis import lowbyte1
from ..hitlist.transform import zn
from ..netsim.build import BuiltInternet
from ..netsim.topology import RouterRole
from .base import SeedList


def _rng(built: BuiltInternet, salt: int) -> random.Random:
    return random.Random(built.config.seed * 1_000_003 + salt)


def _hosting_weight(built: BuiltInternet, asn: int) -> float:
    """Server-density weight of an edge AS.

    Real forward-DNS and certificate-transparency hitlists concentrate in
    hosting/datacenter networks: a minority of ASes holds the vast
    majority of named services, which is why those lists' huge address
    counts translate into modest router discovery (Table 7).  A fifth of
    edge ASes are "hosting-dense"; the rest contribute a trickle.
    """
    roll = random.Random(built.config.seed * 7_919 + asn).random()
    return 1.0 if roll < 0.2 else 0.12


def caida_seed(built: BuiltInternet) -> SeedList:
    """CAIDA: the BGP-advertised prefixes of length at most /48.

    Production Ark traces to the ::1 (and a random) address of every
    routed prefix — pure breadth, no knowledge of internal allocation.
    """
    prefixes = [
        prefix for prefix, _ in built.truth.bgp.items() if prefix.length <= 48
    ]
    return SeedList("caida", "BGP-derived", prefixes)


def fiebig_seed(
    built: BuiltInternet, coverage: float = 0.25, lowbyte_run: int = 6
) -> SeedList:
    """Fiebig: ip6.arpa (reverse DNS) zone walking.

    Enumerating PTR zones yields *everything an operator bothered to name*
    inside participating networks: hosts, routers — including
    infrastructure numbered from unadvertised space (a large share of the
    real Fiebig list is unrouted) — plus dense runs of low-byte records.
    Coverage is deep but confined to the minority of ASes with walkable
    zones, giving the list its extreme clustering (70% of its z64 targets
    have DPL 64, Figure 3a).
    """
    rng = _rng(built, 1)
    items: List[int] = []
    chosen = [asn for asn in built.edge_asns if rng.random() < coverage]
    for asn in chosen:
        asys = built.truth.ases[asn]
        for router in asys.routers:
            items.extend(router.interfaces)
        for subnet in asys.plan.leaves:
            items.extend(subnet.host_addresses())
            items.append(subnet.gateway_addr)
            # Operators name service addresses ::1..::N in walked zones.
            items.extend(
                subnet.prefix.base | offset for offset in range(1, lowbyte_run + 1)
            )
    return SeedList("fiebig", "Reverse DNS", items)


def fdns_seed(
    built: BuiltInternet,
    as_coverage: float = 0.75,
    host_fraction: float = 0.5,
    sixtofour_count: int = 400,
) -> SeedList:
    """FDNS: forward DNS ANY answers (Rapid7 Sonar).

    Public server addresses across a broad swath of ASes — biased toward
    low-byte-numbered servers — plus the 6to4 (2002::/16) noise prominent
    in the real list (Table 5's 6to4 column).
    """
    rng = _rng(built, 2)
    items: List[int] = []
    for asn in built.edge_asns:
        if rng.random() > as_coverage:
            continue
        weight = _hosting_weight(built, asn)
        for subnet in built.truth.ases[asn].plan.leaves:
            for addr in subnet.host_addresses():
                kind = classify_address(addr)
                keep = host_fraction if kind is IIDClass.LOWBYTE else host_fraction / 4
                if rng.random() < keep * weight:
                    items.append(addr)
    # 6to4 addresses embed an IPv4 address in bits 16..48.
    for _ in range(sixtofour_count):
        v4 = rng.getrandbits(32)
        items.append((0x2002 << 112) | (v4 << 80) | rng.randint(1, 0xFFFF))
    return SeedList("fdns_any", "Fwd. DNS", items)


def dnsdb_seed(
    built: BuiltInternet, as_coverage: float = 0.85, host_fraction: float = 0.35
) -> SeedList:
    """DNSDB: passively observed AAAA answers (Farsight).

    What resolvers actually look up: popular services nearly everywhere
    (the widest ASN coverage of the address-valued lists) plus a sprinkle
    of residential hosts serving content from home.
    """
    rng = _rng(built, 3)
    items: List[int] = []
    for asn in built.edge_asns:
        if rng.random() > as_coverage:
            continue
        weight = _hosting_weight(built, asn)
        for subnet in built.truth.ases[asn].plan.leaves:
            # Passive DNS sees at least something nearly everywhere
            # (broadest ASN coverage), but volume follows hosting density.
            first = True
            for addr in subnet.host_addresses():
                keep = host_fraction * weight if not first else host_fraction * max(weight, 0.3)
                first = False
                if rng.random() < keep:
                    items.append(addr)
    for asn in built.cpe_asns:
        for subnet in built.truth.ases[asn].plan.leaves:
            if rng.random() < 0.015 and subnet.host_iids:
                items.append(subnet.host_addresses()[0])
    return SeedList("dnsdb", "Passive DNS", items)


def cdn_observations(
    built: BuiltInternet, intervals: int = 24, activity: float = 0.5
) -> List[Tuple[int, int]]:
    """Simulated CDN WWW-client observations: per interval, each active
    client appears under a *fresh* SLAAC temporary privacy address in its
    home /64 (RFC 4941 rotation), exactly the address type the kIP input
    comprises."""
    rng = _rng(built, 4)
    observations: List[Tuple[int, int]] = []
    for subnet in built.truth.subnets.values():
        for _ in subnet.www_client_iids:
            for interval in range(intervals):
                if rng.random() < activity:
                    iid = rng.getrandbits(64)
                    if (iid >> 24) & 0xFFFF == 0xFFFE:
                        iid ^= 1 << 30
                    observations.append((subnet.prefix.base | (iid or 1), interval))
    return observations


def cdn_seed(
    built: BuiltInternet,
    k: int,
    observations: Optional[Sequence[Tuple[int, int]]] = None,
    intervals: int = 24,
    label: Optional[str] = None,
) -> SeedList:
    """CDN: kIP-anonymized aggregates over WWW client addresses.

    The authors never see client addresses — only aggregates, each
    covering >= k simultaneously assigned /64s (Section 3.2).  ``label``
    lets a scaled-down world keep the paper's set names while using a
    proportionally scaled k (the paper's k=32 sits against ~576M active
    /64s; see DESIGN.md).
    """
    if observations is None:
        observations = cdn_observations(built, intervals=intervals)
    params = KIPParams(k=k, window_days=1, interval_hours=1)
    aggregates = kip_aggregate(observations, params)
    return SeedList(
        label or "cdn-k%d" % k, "kIP anonymization: k = %d" % k, aggregates
    )


def sixgen_seed(
    built: BuiltInternet,
    budget: int = 60_000,
    interface_sample: float = 0.3,
) -> SeedList:
    """6Gen: generative targets seeded with CAIDA probing results.

    The paper feeds 6Gen the destinations CAIDA probed plus the router
    interfaces that probing discovered, and runs loose clustering.
    """
    rng = _rng(built, 5)
    caida_targets = lowbyte1(
        zn(caida_seed(built).items, 64)
    )
    # BGP-guided probing only ever reaches core infrastructure; CPE
    # routers sit in customer space CAIDA does not target, so they can't
    # appear among the "new interfaces found" that seed 6Gen.
    discovered = [
        addr
        for addr, router in built.truth.router_addresses.items()
        if router.role is not RouterRole.CPE and rng.random() < interface_sample
    ]
    seeds = caida_targets + discovered
    generated = generate(
        seeds, SixGenConfig(mode="loose", budget=budget, seed=built.config.seed)
    )
    return SeedList("6gen", "Generative", generated)


def tum_subsets(built: BuiltInternet) -> Dict[str, List[int]]:
    """The TUM collection's constituent files (Table 2), synthesized.

    The real collection unions forward-DNS dumps, certificate-transparency
    scrapes, RIPE traceroute hop addresses, openipmap, and Alexa-derived
    lists; its distinguishing power comes from combining server space with
    *traceroute-derived router addresses* (including residential CPE).
    """
    rng = _rng(built, 6)
    fdns = fdns_seed(built).addresses
    subsets: Dict[str, List[int]] = {}
    subsets["rapid7-dnsany"] = fdns
    subsets["ct"] = [addr for addr in dnsdb_seed(built).addresses if rng.random() < 0.5]
    subsets["alexa-country"] = [addr for addr in fdns[:200]]
    # Traceroute-derived: router interface addresses seen as hops by
    # public measurement platforms — the subset that reaches CPE space.
    # RIPE probes are hosted disproportionately inside the *second* CPE
    # ISP's footprint, so TUM's CPE view complements the CDN's (which
    # watches the first ISP's web-heavy customers, Section 5.1).
    cpe_sample = {}
    for position, asn in enumerate(built.cpe_asns):
        cpe_sample[asn] = 0.02 if position == 0 else 0.08
    traceroute: List[int] = []
    for addr, router in built.truth.router_addresses.items():
        if router.role is RouterRole.CPE:
            if rng.random() < cpe_sample.get(router.asn, 0.0):
                traceroute.append(addr)
        elif rng.random() < 0.04:
            traceroute.append(addr)
    subsets["traceroute"] = traceroute
    # Operator-named router addresses (DNS PTR names): core kit only —
    # nobody writes DNS names for customers' plastic routers.
    subsets["caida-dnsnames"] = [
        addr
        for addr, router in built.truth.router_addresses.items()
        if router.role is not RouterRole.CPE and rng.random() < 0.05
    ]
    subsets["openipmap"] = [
        addr
        for addr, router in built.truth.router_addresses.items()
        if router.role is not RouterRole.CPE and rng.random() < 0.01
    ]
    return subsets


def tum_seed(built: BuiltInternet) -> SeedList:
    """TUM: the union of the collection's subsets."""
    merged: Set[int] = set()
    for values in tum_subsets(built).values():
        merged.update(values)
    return SeedList("tum", "Collection", sorted(merged))


def random_seed(built: BuiltInternet, count: int = 20_000) -> SeedList:
    """Random control: addresses uniformly drawn within routed space,
    prefix chosen uniformly then an address uniformly inside it (the
    paper's unguided BGP-informed baseline)."""
    if count < 0:
        raise ValueError("random seed count must be >= 0, not %d" % count)
    rng = _rng(built, 7)
    prefixes = built.truth.bgp.prefixes()
    items = [
        prefixes[rng.randrange(len(prefixes))].random_address(rng)
        for _ in range(count)
    ]
    return SeedList("random", "Random", items)


#: The seed-source table: name -> builder, called as ``build(built,
#: random_count=, sixgen_budget=, cdn_k32=, cdn_k256=)``.  A row names the
#: knob that parameterises it and ignores the rest; the CDN rows also
#: take ``observations=`` so that :func:`build_all_seeds` draws them once.
#: Each source draws from its own ``_rng(built, salt)``, so a row called
#: alone builds the same list as the same row called among nine.  Adding
#: a hitlist = one function + one row.
SOURCES: Dict[str, Callable[..., SeedList]] = {
    "caida": lambda built, **knobs: caida_seed(built),
    "dnsdb": lambda built, **knobs: dnsdb_seed(built),
    "fiebig": lambda built, **knobs: fiebig_seed(built),
    "fdns_any": lambda built, **knobs: fdns_seed(built),
    "cdn-k256": lambda built, cdn_k256, observations=None, **knobs: cdn_seed(
        built, cdn_k256, observations, label="cdn-k256"
    ),
    "cdn-k32": lambda built, cdn_k32, observations=None, **knobs: cdn_seed(
        built, cdn_k32, observations, label="cdn-k32"
    ),
    "6gen": lambda built, sixgen_budget, **knobs: sixgen_seed(built, budget=sixgen_budget),
    "tum": lambda built, **knobs: tum_seed(built),
    "random": lambda built, random_count, **knobs: random_seed(built, random_count),
}


def build_all_seeds(
    built: BuiltInternet,
    random_count: int = 20_000,
    sixgen_budget: int = 60_000,
    cdn_k32: int = 32,
    cdn_k256: int = 256,
) -> Dict[str, SeedList]:
    """All seed sources of Table 1 keyed by name (plus both CDN variants).

    ``cdn_k32`` / ``cdn_k256`` are the *effective* kIP parameters behind
    the cdn-k32 / cdn-k256 set names.  The paper's absolute values sit
    against hundreds of millions of active client /64s; scaled-down
    worlds pass proportionally scaled values (keeping the 8x ratio) so
    the sets play the same role.
    """
    knobs = dict(
        random_count=random_count,
        sixgen_budget=sixgen_budget,
        cdn_k32=cdn_k32,
        cdn_k256=cdn_k256,
        observations=cdn_observations(built),
    )
    return {name: build(built, **knobs) for name, build in SOURCES.items()}
