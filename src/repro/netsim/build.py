"""Ground-truth internet generation.

Builds a hierarchical AS-level topology (tier-1 backbone mesh, tier-2
regional transits, edge/stub ASes, plus large residential "CPE ISPs"),
a router-level hierarchy inside each AS, BGP and registry tables, subnet
plans, and host populations.  Every quantity is drawn from a seeded RNG,
so a given :class:`InternetConfig` reproduces the same internet bit for
bit.

The generated internet deliberately exhibits the phenomena the paper's
evaluation turns on:

* mandated ICMPv6 rate limiting with heterogeneous parameters per router
  (Figure 5's per-hop response collapse);
* two dominant CPE ISPs whose customer-premises routers carry EUI-64
  addresses from a single manufacturer each (Table 7's EUI-64 finding);
* last-hop gateways numbered inside the customer /64 — with a ::1 IID in
  conventionally run networks — enabling the "IA hack" (Section 6);
* sparse allocation: only a fraction of each AS's address space has
  active distribution prefixes, customer allocations, and LANs (depth
  discoverable only by fine-grained targets, Table 3 / Figure 7);
* border filtering of UDP/TCP probes in a minority of ASes (the protocol
  comparison of Section 4.2);
* infrastructure numbered from unadvertised, registry-only prefixes, and
  operationally "equivalent" ASN families (Section 6's complications).
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..addrs.iid import eui64_iid
from ..addrs.prefix import Prefix
from ..obs.profiler import NULL_PROFILER, WallProfiler
from ..packet.ipv6 import PROTO_ICMPV6, PROTO_TCP, PROTO_UDP
from .addressing import CPE_OUIS, LOWBYTE_SERVER_RANGE, draw_between, interface_address
from .ratelimit import provisioning
from .topology import (
    AddressPlan,
    AutonomousSystem,
    GroundTruth,
    Router,
    RouterRole,
    Subnet,
)


@dataclass(frozen=True)
class VantageConfig:
    """One measurement vantage point: a host inside its own edge AS."""

    name: str
    #: Number of on-premise router hops between the vantage host and the
    #: AS border (US-EDU-2's longer premise path, Section 5.3).
    premise_hops: int = 3
    #: (rate pps, burst) of the premise hops' ICMPv6 limiters; the first
    #: hop is the one Figure 5 watches collapse under sequential probing.
    premise_limit: Tuple[float, float] = (200.0, 60.0)
    #: Hop indexes (1-based within the premise chain) given an extra-
    #: aggressive limiter (Figure 5's hop 3 / hops 5, 9 behaviour).
    aggressive_hops: Tuple[int, ...] = ()
    aggressive_limit: Tuple[float, float] = (40.0, 10.0)


@dataclass(frozen=True)
class InternetConfig:
    """Knobs for the generated internet.  Defaults build a mid-size world
    (~10k routers) suitable for tests; benchmarks scale ``n_edge`` and
    ``cpe_customers_per_isp`` up."""

    seed: int = 2018
    n_tier1: int = 4
    n_tier2: int = 10
    n_edge: int = 120
    n_cpe_isps: int = 2
    cpe_customers_per_isp: int = 1500

    # Edge AS internal plan: active distribution /40s, /48 allocations per
    # distribution, active /64 leaves per allocation, hosts per leaf.
    dist_per_edge: Tuple[int, int] = (2, 5)
    allocs_per_dist: Tuple[int, int] = (2, 5)
    leaves_per_alloc: Tuple[int, int] = (1, 3)
    hosts_per_leaf: Tuple[int, int] = (1, 4)

    #: Fraction of edge ASes advertising a /48 instead of a /32.
    edge_slash48_fraction: float = 0.25
    #: Fraction of edge ASes whose router space is registry-only (not BGP).
    unadvertised_infra_fraction: float = 0.10
    #: Number of "equivalent ASN" families (infrastructure ASN distinct
    #: from the customer-prefix ASN).
    equivalent_families: int = 2

    # Host address technique mix on conventional LANs.
    privacy_fraction: float = 0.55
    eui64_host_fraction: float = 0.25
    #: Fraction of leaves whose hosts surf the web (CDN seed visibility).
    edge_www_fraction: float = 0.15
    #: Per-CPE-ISP WWW-client fraction: the first ISP's customers dominate
    #: the CDN's view, the second's barely appear — which is why the CDN
    #: and TUM target sets end up revealing *different* ISPs' CPE fleets
    #: (Section 5.1).  Indexed by ISP number, last value reused beyond.
    cpe_www_fractions: Tuple[float, ...] = (0.98, 0.25)

    # ICMPv6 error rate limiting (token buckets), sampled per router.
    core_limit_rate: Tuple[float, float] = (300.0, 1200.0)
    core_limit_burst: Tuple[float, float] = (50.0, 200.0)
    edge_limit_rate: Tuple[float, float] = (80.0, 500.0)
    edge_limit_burst: Tuple[float, float] = (20.0, 100.0)

    # Behavioural fractions.
    udp_block_fraction: float = 0.10
    tcp_block_fraction: float = 0.08
    admin_firewall_fraction: float = 0.03
    silent_router_fraction: float = 0.04
    icmp_only_router_fraction: float = 0.01
    #: Probability the final gateway answers a dead-IID probe with an
    #: address-unreachable instead of silence.
    gateway_unreach_probability: float = 0.08
    #: Probability a host (or router answering for its own address)
    #: emits an ICMPv6 error such as port-unreachable for one probe —
    #: end hosts rate-limit errors aggressively (RFC 4443 applies to
    #: them too; Linux defaults to ~1 error/s per destination).
    host_error_probability: float = 0.15
    #: Baseline per-response loss applied on the reverse path.
    response_loss: float = 0.01
    #: Fraction of edge leaf /64s that are fully responsive "aliased
    #: prefixes" (Gasser et al.) — every IID answers.
    aliased_subnet_fraction: float = 0.02
    #: Fraction of edge ASes reached over 6in4-style tunnels (link MTU
    #: 1480); the 6to4 relay always runs at the 1280 floor.
    tunnel_fraction: float = 0.06

    #: Advertise 2002::/16 via a relay AS and give DNS-ish seeds 6to4 noise.
    include_6to4: bool = True

    vantages: Tuple[VantageConfig, ...] = field(
        default_factory=lambda: (
            VantageConfig("US-EDU-1", premise_hops=3),
            VantageConfig(
                "US-EDU-2",
                premise_hops=6,
                aggressive_hops=(5,),
                # Near-dark at campaign rates: the hop whose silence
                # breaks fill chains (Table 6) and depresses this
                # vantage's yield (Section 5.3).
                aggressive_limit=(5.0, 3.0),
            ),
            VantageConfig("EU-NET", premise_hops=3, aggressive_hops=(3,)),
        )
    )


_COUNTS = (
    "n_tier1",
    "n_tier2",
    "n_edge",
    "n_cpe_isps",
    "cpe_customers_per_isp",
    "equivalent_families",
)
_COUNT_RANGES = ("dist_per_edge", "allocs_per_dist", "leaves_per_alloc", "hosts_per_leaf")
_LIMIT_RANGES = (
    ("core_limit_rate", "core_limit_burst"),
    ("edge_limit_rate", "edge_limit_burst"),
)
#: An edge AS or a CPE ISP samples up to this many distinct tier-2 providers.
_MIN_TIER2 = 2


def _pair(what: str, value: Any) -> Tuple[Any, Any]:
    try:
        low, high = value
    except (TypeError, ValueError):
        raise ValueError("world.%s must be a (low, high) pair, not %r" % (what, value)) from None
    return low, high


def _limit(what: str, rate: float, burst: float) -> None:
    try:
        provisioning(rate, burst)
    except (TypeError, ValueError) as error:
        raise ValueError("world.%s: %s" % (what, error)) from None


def validate_config(config: InternetConfig) -> None:
    """Refuse, with a one-line ``ValueError`` naming the field, a config
    the builder would mis-draw from.

    The builder draws through helpers that assume what is checked here
    once — counts are not negative, ``(low, high)`` ranges are ordered
    integers, limiter provisioning is grantable, fractions are
    probabilities, vantage names are unique and aggressive hops lie on
    the premise chain — instead of finding out from whichever stdlib call
    trips first, part-way through the RNG stream (or not at all, from a
    world built without the hop or vantage asked for).
    """
    for name in _COUNTS:
        value = getattr(config, name)
        if not (isinstance(value, int) and value >= 0):
            raise ValueError("world.%s must be an int >= 0, not %r" % (name, value))
    if config.n_tier2 < _MIN_TIER2:
        raise ValueError(
            "world.n_tier2 must be at least %d (the providers an edge AS or CPE ISP "
            "samples), not %r" % (_MIN_TIER2, config.n_tier2)
        )
    for name in _COUNT_RANGES:
        low, high = _pair(name, getattr(config, name))
        if not (isinstance(low, int) and isinstance(high, int) and 0 <= low <= high):
            raise ValueError(
                "world.%s must be ints 0 <= low <= high, not %r" % (name, (low, high))
            )
    for rates, bursts in _LIMIT_RANGES:
        ends = zip(_pair(rates, getattr(config, rates)), _pair(bursts, getattr(config, bursts)))
        for rate, burst in ends:
            _limit("%s / %s" % (rates, bursts), rate, burst)
    if not config.cpe_www_fractions:
        raise ValueError("world.cpe_www_fractions must not be empty")
    # ``response_loss`` is a probability by meaning, not by name.
    fractions = [("response_loss", config.response_loss)]
    fractions += [
        (item.name, getattr(config, item.name))
        for item in fields(config)
        if item.name.endswith(("_fraction", "_probability"))
    ]
    fractions += [
        ("cpe_www_fractions[%d]" % at, value)
        for at, value in enumerate(config.cpe_www_fractions)
    ]
    for name, value in fractions:
        if not 0.0 <= value <= 1.0:
            raise ValueError("world.%s must be within [0, 1], not %r" % (name, value))
    named = set()
    for vantage in config.vantages:
        where = "vantages[%s]" % vantage.name
        if vantage.name in named:
            raise ValueError("world.%s: duplicate vantage name" % where)
        named.add(vantage.name)
        if not (isinstance(vantage.premise_hops, int) and vantage.premise_hops >= 0):
            raise ValueError(
                "world.%s.premise_hops must be an int >= 0, not %r"
                % (where, vantage.premise_hops)
            )
        # A hop outside the premise chain would be silently ignored.
        for at, hop in enumerate(vantage.aggressive_hops):
            if not (isinstance(hop, int) and 1 <= hop <= vantage.premise_hops):
                raise ValueError(
                    "world.%s.aggressive_hops[%d] must be an int in 1..%d, not %r"
                    % (where, at, vantage.premise_hops, hop)
                )
        for name in ("premise_limit", "aggressive_limit"):
            what = "%s.%s" % (where, name)
            _limit(what, *_pair(what, getattr(vantage, name)))


class Vantage:
    """A built vantage: its host address and on-premise hop chain."""

    __slots__ = ("name", "asn", "address", "premise_chain")

    def __init__(self, name: str, asn: int, address: int) -> None:
        self.name = name
        self.asn = asn
        self.address = address
        #: [(router, iface_addr)] from first hop outward to the AS border.
        self.premise_chain: List[Tuple[Router, int]] = []

    def __repr__(self) -> str:
        return "Vantage(%s, AS%d)" % (self.name, self.asn)


class BuiltInternet:
    """The builder's output: ground truth plus routing structure."""

    __slots__ = (
        "config",
        "truth",
        "vantages",
        "tier1_asns",
        "tier2_asns",
        "edge_asns",
        "cpe_asns",
        "borders",
        "cores",
        "dist_routers",
        "agg_routers",
        "uplinks",
        "alloc_index",
        "dist_index",
    )

    def __init__(self, config: InternetConfig) -> None:
        self.config = config
        self.truth = GroundTruth()
        self.vantages: Dict[str, Vantage] = {}
        self.tier1_asns: List[int] = []
        self.tier2_asns: List[int] = []
        self.edge_asns: List[int] = []
        self.cpe_asns: List[int] = []
        #: ASN -> [(border_router, iface_addr)] (ingress candidates).
        self.borders: Dict[int, List[Tuple[Router, int]]] = {}
        #: ASN -> [(core_router, iface_addr)] (ECMP candidates).
        self.cores: Dict[int, List[Tuple[Router, int]]] = {}
        #: /40-distribution base addr -> interface options (router, iface).
        self.dist_routers: Dict[int, Tuple[Router, int]] = {}
        #: /48-allocation base addr -> interface options (router, iface).
        self.agg_routers: Dict[int, Tuple[Router, int]] = {}
        #: ASN -> provider ASNs.
        self.uplinks: Dict[int, List[int]] = {}
        #: ASN -> sorted list of allocation prefixes (fast membership).
        self.alloc_index: Dict[int, List[Prefix]] = {}
        self.dist_index: Dict[int, List[Prefix]] = {}


def _allocate_slots(rng: random.Random, span: int, count: int) -> List[int]:
    """Subnet slot selection with operational locality: most operators
    allocate sequentially from the bottom of the block, some scatter."""
    if count >= span:
        return list(range(span))
    if rng.random() < 0.65:
        offset = rng.randrange(0, max(1, min(8, span - count)))
        return list(range(offset, offset + count))
    return rng.sample(range(span), k=count)


class _Builder:
    """Stateful construction helper; call :func:`build_internet` instead."""

    def __init__(self, config: InternetConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.out = BuiltInternet(config)
        truth = self.out.truth
        self._routers = truth.routers
        self._router_addresses = truth.router_addresses
        self._subnets = truth.subnets
        self._next_asn = 64496
        self._next_router_id = 1
        self._used_prefixes: Set[int] = set()
        self._link_counters: Dict[int, int] = {}
        self._infra_prefix: Dict[int, Prefix] = {}
        self._link_space: Dict[int, Prefix] = {}

    # -- identity allocation ------------------------------------------
    def new_asn(self) -> int:
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def _unique_slash32(self) -> Prefix:
        while True:
            high = 0x2000 | self.rng.getrandbits(13)
            low = self.rng.getrandbits(16)
            base = (high << 112) | (low << 96)
            if base not in self._used_prefixes:
                self._used_prefixes.add(base)
                return Prefix(base, 32)

    def new_router(
        self,
        asn: int,
        role: RouterRole,
        rate_range: Tuple[float, float],
        burst_range: Tuple[float, float],
    ) -> Router:
        rng, config = self.rng, self.config
        random = rng.random
        # ``uniform(low, high)`` is ``low + (high - low) * random()``: the
        # same draws without a stdlib frame per range per router.
        rate_low, rate_high = rate_range
        burst_low, burst_high = burst_range
        rate = rate_low + (rate_high - rate_low) * random()
        burst = burst_low + (burst_high - burst_low) * random()
        respond: Optional[Set[int]] = None
        probability = 1.0
        if random() < config.silent_router_fraction:
            probability = rng.uniform(0.0, 0.5)
        elif random() < config.icmp_only_router_fraction:
            respond = {PROTO_ICMPV6}
        router_id = self._next_router_id
        self._next_router_id = router_id + 1
        router = self._routers[router_id] = Router(
            router_id, asn, role, rate, burst, respond, probability
        )
        return router

    def link_prefix(self, asn: int) -> Prefix:
        """Next infrastructure /64 for a point-to-point link inside ``asn``."""
        counter = self._link_counters.get(asn, 0)
        self._link_counters[asn] = counter + 1
        infra = self._link_space[asn]
        # Infrastructure links live under the first /48 of the infra prefix.
        return Prefix(infra.base | (counter << 64), 64)

    def give_interface(self, router: Router, addr: int) -> int:
        router.interfaces.append(addr)
        self._router_addresses[addr] = router
        return addr

    def iface_on_link(self, router: Router, link: Prefix, position: int) -> int:
        asys = self.out.truth.ases[router.asn]
        plan = asys.address_plan
        if plan is AddressPlan.EUI64:
            # EUI-64 comes from SLAAC on customer-premises gear, numbered
            # by ``add_leaves``; an ISP's own links are statically numbered.
            plan = AddressPlan.LOWBYTE
        return self.give_interface(router, interface_address(link, plan, position, self.rng))

    # -- AS construction -----------------------------------------------
    def make_as(
        self,
        name: str,
        tier: int,
        plan: AddressPlan,
        hidden_infra: bool = False,
        prefix_length: int = 32,
    ) -> AutonomousSystem:
        """Create an AS with an advertised primary prefix.  With
        ``hidden_infra`` the routers are numbered from a *separate*,
        registry-only prefix — customers stay globally reachable but the
        infrastructure addresses fall outside the public BGP (one of
        Section 6's record-keeping complications)."""
        asn = self.new_asn()
        asys = AutonomousSystem(asn, name, tier, plan)
        primary = self._unique_slash32()
        if prefix_length != 32:
            primary = Prefix(primary.base, prefix_length)
        self._infra_prefix[asn] = primary
        asys.prefixes.append(primary)
        self.out.truth.bgp.insert(primary, asn)
        self.out.truth.registry.insert(primary, asn)
        if hidden_infra:
            hidden = self._unique_slash32()
            asys.internal_prefixes.append(hidden)
            self.out.truth.registry.insert(hidden, asn)
            self._link_space[asn] = hidden
        else:
            self._link_space[asn] = primary
        self.out.truth.ases[asn] = asys
        return asys

    def attach_border(self, asys: AutonomousSystem, count: int, core: bool = True) -> None:
        """Create border (and core) routers with infrastructure addresses."""
        config = self.config
        rate = config.core_limit_rate if asys.tier <= 2 else config.edge_limit_rate
        burst = config.core_limit_burst if asys.tier <= 2 else config.edge_limit_burst
        # Each router exposes two ingress interfaces; which one sources
        # its ICMPv6 errors depends on the flow's ECMP variant.  Multiple
        # addresses per router are what alias resolution later collapses.
        borders = []
        for _ in range(count):
            router = self.new_router(asys.asn, RouterRole.BORDER, rate, burst)
            asys.routers.append(router)
            for _iface in range(2):
                link = self.link_prefix(asys.asn)
                borders.append((router, self.iface_on_link(router, link, 0)))
        self.out.borders[asys.asn] = borders
        cores = []
        if core:
            n_core = 2 if asys.tier == 1 else 1
            for _ in range(n_core):
                router = self.new_router(asys.asn, RouterRole.CORE, rate, burst)
                asys.routers.append(router)
                for _iface in range(2):
                    link = self.link_prefix(asys.asn)
                    cores.append((router, self.iface_on_link(router, link, 0)))
        self.out.cores[asys.asn] = cores

    def set_policy(self, asys: AutonomousSystem) -> None:
        rng, config = self.rng, self.config
        blocked: Set[int] = set()
        if rng.random() < config.udp_block_fraction:
            blocked.add(PROTO_UDP)
        if rng.random() < config.tcp_block_fraction:
            blocked.add(PROTO_TCP)
        action = "drop"
        if rng.random() < config.admin_firewall_fraction:
            blocked.update({PROTO_UDP, PROTO_TCP, PROTO_ICMPV6})
            action = "admin"
        asys.policy.blocked_protocols = blocked
        asys.policy.prohibit_action = action

    # -- leaf subnets ----------------------------------------------------
    def add_leaves(
        self,
        asys: AutonomousSystem,
        parent: Prefix,
        slots: Iterable[int],
        role: RouterRole,
        www_fraction: float,
    ) -> None:
        """The leaf /64s number ``slots`` of ``parent``, each behind a new
        ``role`` gateway: the world build's inner loop.

        Per leaf, in stream order: the gateway's draws (``new_router``),
        the host count (``draw_between``), the gateway's IID on the LAN
        (EUI-64 on residential LANs, ``::1`` elsewhere), the
        aliased flag (not on residential LANs), the www flag, then per host
        a technique roll and its IID.  The helpers named are spelled out
        here over the run's constants, the same draws without a frame per
        draw (``tests/netsim/test_addressing_ecmp.py`` holds the kernel to
        them).  Every slot lies inside ``parent`` by construction, so the
        leaf prefix skips ``nth_subnet``'s range check.
        """
        config, new_router = self.config, self.new_router
        getrandbits, random = self.rng.getrandbits, self.rng.random
        rate, burst = config.edge_limit_rate, config.edge_limit_burst
        hosts_low, hosts_high = config.hosts_per_leaf
        hosts_width = hosts_high - hosts_low + 1
        hosts_bits = hosts_width.bit_length()
        server_low, server_high = LOWBYTE_SERVER_RANGE
        server_width = server_high - server_low + 1
        server_bits = server_width.bit_length()
        residential = asys.address_plan is AddressPlan.EUI64
        # An EUI-64 IID is its vendor's bits OR three NIC octet draws.
        gateway_eui64 = eui64_iid(asys.cpe_oui or CPE_OUIS[0], 0) if residential else 0
        host_eui64 = eui64_iid(asys.cpe_oui or CPE_OUIS[1], 0)
        aliased_fraction = config.aliased_subnet_fraction
        # Residential LANs are dominated by SLAAC privacy addresses;
        # enterprise/hosting LANs carry more static low-byte servers.
        privacy_below = 0.85 if residential else config.privacy_fraction
        eui64_below = privacy_below + config.eui64_host_fraction
        parent_base = parent.base
        aligned = Prefix._aligned
        router_addresses, subnets = self._router_addresses, self._subnets
        add_router, add_leaf = asys.routers.append, asys.plan.leaves.append
        for slot in slots:
            gateway = new_router(asys.asn, role, rate, burst)
            add_router(gateway)
            count = getrandbits(hosts_bits)
            while count >= hosts_width:
                count = getrandbits(hosts_bits)
            base = parent_base | (slot << 64)
            if residential:
                gateway_addr = base | gateway_eui64 | (
                    (getrandbits(8) << 16) | (getrandbits(8) << 8) | getrandbits(8)
                )
            else:
                gateway_addr = base | 1
            gateway.interfaces.append(gateway_addr)
            router_addresses[gateway_addr] = gateway
            subnet = Subnet(aligned(base, 64), gateway, gateway_addr)
            if not residential and random() < aliased_fraction:
                subnet.aliased = True
            www = random() < www_fraction
            hosts = subnet.host_iids
            clients = subnet.www_client_iids
            for _ in range(hosts_low + count):
                roll = random()
                if roll < privacy_below:
                    # RFC 4941 temporary address: uniformly random, the
                    # ff:fe EUI-64 marker cleared so classification
                    # stays honest.
                    iid = getrandbits(64)
                    if (iid >> 24) & 0xFFFF == 0xFFFE:
                        iid ^= 1 << 30
                    iid = iid or 1
                    if www:
                        # The hosts that surf are the CDN-visible clients.
                        clients.append(iid)
                elif roll < eui64_below:
                    iid = host_eui64 | (
                        (getrandbits(8) << 16) | (getrandbits(8) << 8) | getrandbits(8)
                    )
                else:
                    iid = getrandbits(server_bits)
                    while iid >= server_width:
                        iid = getrandbits(server_bits)
                    iid += server_low
                hosts.append(iid)
            subnets[base] = subnet
            add_leaf(subnet)

    # -- the big pieces ---------------------------------------------------
    def build_backbone(self) -> None:
        for index in range(self.config.n_tier1):
            asys = self.make_as("T1-%d" % index, 1, AddressPlan.LOWBYTE)
            self.attach_border(asys, count=2)
            self.out.tier1_asns.append(asys.asn)
        for index in range(self.config.n_tier2):
            plan = AddressPlan.LOWBYTE if index % 2 else AddressPlan.RANDOM
            asys = self.make_as("T2-%d" % index, 2, plan)
            self.attach_border(asys, count=2)
            providers = self.rng.sample(
                self.out.tier1_asns, k=min(2, len(self.out.tier1_asns))
            )
            asys.providers.extend(providers)
            self.out.uplinks[asys.asn] = providers
            self.out.tier2_asns.append(asys.asn)

    def build_edge_ases(self) -> None:
        config, rng = self.config, self.rng
        pending_equivalents = config.equivalent_families
        for index in range(config.n_edge):
            plan = AddressPlan.LOWBYTE if rng.random() < 0.6 else AddressPlan.RANDOM
            hidden = rng.random() < config.unadvertised_infra_fraction
            length = 48 if rng.random() < config.edge_slash48_fraction else 32
            asys = self.make_as(
                "EDGE-%d" % index, 3, plan, hidden_infra=hidden,
                prefix_length=length,
            )
            self.set_policy(asys)
            if rng.random() < config.tunnel_fraction:
                asys.link_mtu = 1480  # 6in4 tunnel overhead
            self.attach_border(asys, count=1)
            providers = rng.sample(
                self.out.tier2_asns, k=1 if rng.random() < 0.7 else 2
            )
            asys.providers.extend(providers)
            self.out.uplinks[asys.asn] = providers
            self.out.edge_asns.append(asys.asn)
            self.build_edge_plan(asys)
            # Deterministically give the first few edge ASes an
            # "equivalent" sibling infrastructure ASN (Section 6).
            if pending_equivalents and index % 7 == 3:
                self.add_equivalent_family(asys)
                pending_equivalents -= 1

    def add_equivalent_family(self, asys: AutonomousSystem) -> None:
        """Give ``asys`` a sibling infrastructure ASN originating a separate
        prefix used only for router numbering (Section 6)."""
        sibling = self.new_asn()
        infra = self._unique_slash32()
        sibling_as = AutonomousSystem(
            sibling, asys.name + "-INFRA", asys.tier, asys.address_plan
        )
        sibling_as.prefixes.append(infra)
        self.out.truth.ases[sibling] = sibling_as
        self.out.truth.bgp.insert(infra, sibling)
        self.out.truth.registry.insert(infra, sibling)
        self.out.truth.equivalent_asns[sibling] = asys.asn
        self.out.truth.equivalent_asns[asys.asn] = asys.asn
        # Renumber the AS's border routers from the sibling prefix, one
        # fresh link /64 per router.
        seen = set()
        counter = 0
        for router, _ in self.out.borders[asys.asn]:
            if router.router_id in seen:
                continue
            seen.add(router.router_id)
            link = Prefix(infra.base | ((0xFE00 + counter) << 64), 64)
            counter += 1
            addr = interface_address(link, asys.address_plan, 0, self.rng)
            self.give_interface(router, addr)

    def build_edge_plan(self, asys: AutonomousSystem) -> None:
        """Sparse hierarchical allocation inside one edge AS."""
        config, rng = self.config, self.rng
        prefix = self._infra_prefix[asys.asn]
        # Customer space: everything except the infra /48 (index 0).
        dist_length = min(40, prefix.length + 8) if prefix.length < 40 else min(
            prefix.length + 4, 56
        )
        n_dist = draw_between(rng, *config.dist_per_edge)
        dist_slots = rng.sample(
            range(1, 1 << (dist_length - prefix.length)),
            k=min(n_dist, (1 << (dist_length - prefix.length)) - 1),
        )
        dists: List[Prefix] = []
        for slot in dist_slots:
            dist = prefix.nth_subnet(dist_length, slot)
            dists.append(dist)
            asys.plan.distribution.append(dist)
            router = self.new_router(
                asys.asn,
                RouterRole.DISTRIBUTION,
                config.edge_limit_rate,
                config.edge_limit_burst,
            )
            asys.routers.append(router)
            iface = self.iface_on_link(router, self.link_prefix(asys.asn), 0)
            self.out.dist_routers[dist.base] = ((router, iface),)
            alloc_length = min(60, dist_length + 8)
            n_alloc = draw_between(rng, *config.allocs_per_dist)
            span = 1 << (alloc_length - dist_length)
            alloc_slots = _allocate_slots(rng, span, min(n_alloc, span))
            for alloc_slot in alloc_slots:
                alloc = dist.nth_subnet(alloc_length, alloc_slot)
                asys.plan.allocations.append(alloc)
                agg = self.new_router(
                    asys.asn,
                    RouterRole.AGGREGATION,
                    config.edge_limit_rate,
                    config.edge_limit_burst,
                )
                asys.routers.append(agg)
                agg_iface = self.iface_on_link(agg, self.link_prefix(asys.asn), 0)
                self.out.agg_routers[alloc.base] = ((agg, agg_iface),)
                n_leaves = draw_between(rng, *config.leaves_per_alloc)
                leaf_span = 1 << (64 - alloc_length)
                leaf_slots = _allocate_slots(rng, leaf_span, min(n_leaves, leaf_span))
                self.add_leaves(
                    asys, alloc, leaf_slots, RouterRole.GATEWAY, config.edge_www_fraction
                )
        self.out.dist_index[asys.asn] = sorted(dists)
        self.out.alloc_index[asys.asn] = sorted(asys.plan.allocations)

    def build_cpe_isp(self, index: int) -> None:
        """One large residential ISP: regional hierarchy over many /56
        customer delegations, CPE gateways with single-vendor EUI-64."""
        config, rng = self.config, self.rng
        asys = self.make_as("CPE-ISP-%d" % index, 3, AddressPlan.EUI64)
        asys.cpe_oui = CPE_OUIS[index % len(CPE_OUIS)]
        self.set_policy(asys)
        asys.policy.blocked_protocols = set()  # big ISPs don't filter
        self.attach_border(asys, count=2)
        providers = rng.sample(self.out.tier2_asns, k=2)
        asys.providers.extend(providers)
        self.out.uplinks[asys.asn] = providers
        self.out.cpe_asns.append(asys.asn)

        prefix = self._infra_prefix[asys.asn]
        n_regions = 8
        region_length = prefix.length + 8  # /40 regions
        customers = config.cpe_customers_per_isp
        www = config.cpe_www_fractions[min(index, len(config.cpe_www_fractions) - 1)]
        per_region = max(1, customers // n_regions)
        region_slots = rng.sample(range(1, 200), k=n_regions)
        for region_slot in region_slots:
            region = prefix.nth_subnet(region_length, region_slot)
            asys.plan.distribution.append(region)
            dist = self.new_router(
                asys.asn,
                RouterRole.DISTRIBUTION,
                config.core_limit_rate,
                config.core_limit_burst,
            )
            asys.routers.append(dist)
            dist_iface = self.iface_on_link(dist, self.link_prefix(asys.asn), 0)
            self.out.dist_routers[region.base] = ((dist, dist_iface),)
            # One BNG aggregates each /44 pool of /56 delegations.
            pool_length = region_length + 4
            n_pools = max(1, min(8, per_region // 64))
            pool_slots = rng.sample(range(1 << 4), k=n_pools)
            per_pool = max(1, per_region // n_pools)
            for pool_slot in pool_slots:
                pool = region.nth_subnet(pool_length, pool_slot)
                asys.plan.allocations.append(pool)
                bng = self.new_router(
                    asys.asn,
                    RouterRole.AGGREGATION,
                    config.core_limit_rate,
                    config.core_limit_burst,
                )
                asys.routers.append(bng)
                bng_iface = self.iface_on_link(bng, self.link_prefix(asys.asn), 0)
                self.out.agg_routers[pool.base] = ((bng, bng_iface),)
                span = 1 << (56 - pool_length)
                # Residential delegations are assigned sequentially from a
                # small offset: address locality is what makes kIP
                # aggregation and 6Gen generation effective on client space.
                offset = rng.randrange(0, 8)
                count = min(per_pool, span - offset)
                # /64 number 0 of each customer's /56 delegation
                delegations = range(offset << 8, (offset + count) << 8, 1 << 8)
                self.add_leaves(asys, pool, delegations, RouterRole.CPE, www)
        self.out.dist_index[asys.asn] = sorted(asys.plan.distribution)
        self.out.alloc_index[asys.asn] = sorted(asys.plan.allocations)

    def build_6to4_relay(self) -> None:
        asys = self.make_as("6TO4-RELAY", 3, AddressPlan.LOWBYTE)
        asys.link_mtu = 1280  # protocol-41 encapsulation at the floor
        relay_prefix = Prefix.parse("2002::/16")
        asys.prefixes.append(relay_prefix)
        self.out.truth.bgp.insert(relay_prefix, asys.asn)
        self.out.truth.registry.insert(relay_prefix, asys.asn)
        self.attach_border(asys, count=1)
        providers = [self.out.tier2_asns[0]]
        asys.providers.extend(providers)
        self.out.uplinks[asys.asn] = providers
        self.out.edge_asns.append(asys.asn)
        self.out.dist_index[asys.asn] = []
        self.out.alloc_index[asys.asn] = []

    def build_vantages(self) -> None:
        config = self.config
        for vantage_config in config.vantages:
            asys = self.make_as("VP-" + vantage_config.name, 3, AddressPlan.LOWBYTE)
            self.attach_border(asys, count=1)
            providers = self.rng.sample(self.out.tier2_asns, k=1)
            asys.providers.extend(providers)
            self.out.uplinks[asys.asn] = providers
            prefix = self._infra_prefix[asys.asn]
            vantage_addr = prefix.base | 0x100
            vantage = Vantage(vantage_config.name, asys.asn, vantage_addr)
            for hop_index in range(1, vantage_config.premise_hops + 1):
                if hop_index in vantage_config.aggressive_hops:
                    rate, burst = vantage_config.aggressive_limit
                else:
                    rate, burst = vantage_config.premise_limit
                router = self._routers[self._next_router_id] = Router(
                    self._next_router_id,
                    asys.asn,
                    RouterRole.CORE,
                    rate,
                    burst,
                )
                self._next_router_id += 1
                asys.routers.append(router)
                link = self.link_prefix(asys.asn)
                iface = self.give_interface(router, link.base | 1)
                vantage.premise_chain.append((router, iface))
            self.vantage_done(vantage)
        # vantage ASes never filter their own probes
        for vantage in self.out.vantages.values():
            self.out.truth.ases[vantage.asn].policy.blocked_protocols = set()

    def vantage_done(self, vantage: Vantage) -> None:
        self.out.vantages[vantage.name] = vantage
        self.out.dist_index[vantage.asn] = []
        self.out.alloc_index[vantage.asn] = []

    def build(self, prof: WallProfiler = NULL_PROFILER) -> BuiltInternet:
        with collector_paused():
            with prof.phase("backbone"):
                self.build_backbone()
            with prof.phase("edge_ases"):
                for asn in self.out.tier1_asns + self.out.tier2_asns:
                    self.out.dist_index[asn] = []
                    self.out.alloc_index[asn] = []
                self.build_edge_ases()
            with prof.phase("cpe_isps"):
                for index in range(self.config.n_cpe_isps):
                    self.build_cpe_isp(index)
            if self.config.include_6to4:
                with prof.phase("6to4_relay"):
                    self.build_6to4_relay()
            with prof.phase("vantages"):
                self.build_vantages()
            return self.out


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep CPython's cyclic collector off for the block, then give it
    back as it was found: on again only if it was on, also when the
    block raises.

    For the blocks that allocate much and strand no reference cycle: a
    world build, a campaign's run and one CLI command.  Left on, the
    generational collector re-walks every router, subnet, record and
    seed as they pile up, and frees nothing; reference counts free them
    when the block's caller lets go.  (What it saves, per command:
    docs/performance.md, "The collector over a command".)
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def build_internet(
    config: Optional[InternetConfig] = None, profiler: WallProfiler = NULL_PROFILER
) -> BuiltInternet:
    """Generate a ground-truth internet from ``config`` (seeded, repeatable);
    ``ValueError`` before the first draw for a config :func:`validate_config`
    refuses.  ``profiler`` gives each build step a phase of its own
    (``backbone``, ``edge_ases``, ``cpe_isps``, ``6to4_relay``,
    ``vantages``): wall-clock reporting only, the world is the same."""
    config = config or InternetConfig()
    validate_config(config)
    return _Builder(config).build(profiler)


#: A token-bucket parameterization that can never run dry at campaign
#: scales — used by :func:`decoupled_dynamics` to make rate limiting
#: non-binding without changing the topology machinery.
_UNLIMITED = (1e15, 1e15)


def decoupled_dynamics(config: Optional[InternetConfig] = None) -> InternetConfig:
    """A copy of ``config`` whose dynamic couplings are non-binding.

    The returned world drops nothing stochastically (no response loss,
    no probabilistic gateways or silent routers, hosts always answer)
    and its ICMPv6 rate limiters are too generous to ever deny a token.
    Every response is then a pure function of the probe's bytes and send
    time, independent of what other probes the internet saw first — the
    property ``prober.parallel`` builds its determinism contract on:
    campaigns over a decoupled world decompose exactly into permutation
    shards.  (It is still a *different* world from the same seed with
    default knobs: the generator consumes its RNG differently.)
    """
    base = config or InternetConfig()
    vantages = tuple(
        replace(
            vantage,
            premise_limit=_UNLIMITED,
            aggressive_hops=(),
            aggressive_limit=_UNLIMITED,
        )
        for vantage in base.vantages
    )
    return replace(
        base,
        response_loss=0.0,
        gateway_unreach_probability=0.0,
        host_error_probability=1.0,
        silent_router_fraction=0.0,
        icmp_only_router_fraction=0.0,
        core_limit_rate=_UNLIMITED,
        core_limit_burst=_UNLIMITED,
        edge_limit_rate=_UNLIMITED,
        edge_limit_burst=_UNLIMITED,
        vantages=vantages,
    )
