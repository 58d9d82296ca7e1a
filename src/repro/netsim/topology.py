"""Ground-truth topology data model for the simulated IPv6 internet.

The builder (:mod:`repro.netsim.build`) populates these structures; the
packet-level simulator (:mod:`repro.netsim.internet`) walks them; the
evaluation harness reads them back as *ground truth* — e.g. Section 6's
subnet-inference validation compares inferred prefixes against each AS's
:class:`SubnetPlan`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple

from ..addrs.prefix import Prefix
from ..addrs.trie import PrefixTrie
from .ratelimit import provisioning
from .runstate import run_state


class RouterRole(enum.Enum):
    """Where a router sits in the hierarchy (drives its address plan and
    rate-limiter provisioning)."""

    BORDER = "border"
    CORE = "core"
    DISTRIBUTION = "distribution"
    AGGREGATION = "aggregation"
    GATEWAY = "gateway"
    CPE = "cpe"


class AddressPlan(enum.Enum):
    """How an AS numbers its router interfaces (Section 5.1, Section 7.1)."""

    LOWBYTE = "lowbyte"
    RANDOM = "random"
    EUI64 = "eui64"


class HostKind(enum.Enum):
    """End-host address assignment technique."""

    SLAAC_PRIVACY = "slaac-privacy"
    EUI64 = "eui64"
    LOWBYTE_SERVER = "lowbyte-server"


@run_state()
class Router:
    """A packet forwarder: interfaces, the provisioning of its ICMPv6
    error rate limiter, and response behaviour knobs.

    Immutable after the build: the empty :func:`run_state` registration
    makes any later write a MUT101 / ShardSan violation.  Everything a
    campaign changes about a router lives in the ``RouterState`` the
    probing :class:`~repro.netsim.internet.Internet` keeps for it.
    """

    __slots__ = (
        "router_id",
        "asn",
        "role",
        "rate",
        "burst",
        "interfaces",
        "respond_protocols",
        "response_probability",
        "frag_drift",
    )

    def __init__(
        self,
        router_id: int,
        asn: int,
        role: RouterRole,
        rate: float,
        burst: float,
        respond_protocols: Optional[Set[int]] = None,
        response_probability: float = 1.0,
    ) -> None:
        self.router_id = router_id
        self.asn = asn
        self.role = role
        #: Token-bucket provisioning (tokens/second, bucket depth) of the
        #: router's ICMPv6 error limiter.
        self.rate, self.burst = provisioning(rate, burst)
        self.interfaces: List[int] = []
        #: None = respond regardless of probe protocol; otherwise the set of
        #: next-header values that elicit errors (one paper vantage saw a
        #: hop answering only ICMPv6 probes).
        self.respond_protocols = respond_protocols
        #: Baseline per-packet response probability before rate limiting
        #: (models loss and silent hops).
        self.response_probability = response_probability
        #: Fragment Identification drift (IDs/second) from the router's
        #: own background traffic — what speedtrap's velocity tolerance
        #: must ride over.  Deterministic per router.
        self.frag_drift = (router_id * 2654435761 % 400) / 100.0

    def __repr__(self) -> str:
        return "Router(%d, AS%d, %s, %d ifaces)" % (
            self.router_id,
            self.asn,
            self.role.value,
            len(self.interfaces),
        )


class Subnet:
    """A leaf /64 LAN: its gateway hop and the hosts on it."""

    __slots__ = (
        "prefix",
        "gateway",
        "gateway_addr",
        "host_iids",
        "www_client_iids",
        "aliased",
    )

    def __init__(self, prefix: Prefix, gateway: Router, gateway_addr: int) -> None:
        if prefix.length != 64:
            raise ValueError("leaf subnets are /64, got %s" % prefix)
        self.prefix = prefix
        self.gateway = gateway
        #: Gateway's interface address *on this LAN* — the source of its
        #: ICMPv6 errors, and what the IA hack recognises.
        self.gateway_addr = gateway_addr
        self.host_iids: List[int] = []
        #: IIDs of hosts that act as WWW clients (feed the CDN seed).
        self.www_client_iids: List[int] = []
        #: An "aliased prefix" (Gasser et al.): a middlebox answers for
        #: *every* address in the /64, polluting hitlists with phantom
        #: hosts.
        self.aliased = False

    def host_addresses(self) -> List[int]:
        return [self.prefix.base | iid for iid in self.host_iids]

    def has_host(self, addr: int) -> bool:
        if not self.prefix.contains(addr):
            return False
        return (addr & ((1 << 64) - 1)) in self.host_iids

    def __repr__(self) -> str:
        return "Subnet(%s, %d hosts)" % (self.prefix, len(self.host_iids))


class SubnetPlan:
    """An AS's internal address plan: the ground truth for Section 6.

    ``distribution`` prefixes are the intermediate subnets (the paper's
    "city-level" truth data); ``allocations`` the per-customer prefixes;
    ``leaves`` the active /64 LANs.
    """

    __slots__ = ("asn", "distribution", "allocations", "leaves")

    def __init__(self, asn: int) -> None:
        self.asn = asn
        self.distribution: List[Prefix] = []
        self.allocations: List[Prefix] = []
        self.leaves: List[Subnet] = []


class ASPolicy:
    """Border filtering policy (drives the protocol comparison, §4.2)."""

    __slots__ = ("blocked_protocols", "prohibit_action")

    def __init__(
        self,
        blocked_protocols: Optional[Set[int]] = None,
        prohibit_action: str = "drop",
    ) -> None:
        self.blocked_protocols = blocked_protocols or set()
        #: "drop" (silent) or "admin" (ICMPv6 administratively prohibited).
        self.prohibit_action = prohibit_action


class AutonomousSystem:
    """An AS: prefixes it originates, its routers, providers, and policy."""

    __slots__ = (
        "asn",
        "name",
        "tier",
        "prefixes",
        "internal_prefixes",
        "providers",
        "routers",
        "plan",
        "policy",
        "address_plan",
        "cpe_oui",
        "link_mtu",
    )

    def __init__(self, asn: int, name: str, tier: int, address_plan: AddressPlan) -> None:
        self.asn = asn
        self.name = name
        #: 1 = backbone, 2 = regional transit, 3 = edge/stub.
        self.tier = tier
        #: BGP-advertised prefixes.
        self.prefixes: List[Prefix] = []
        #: RIR-registered but not globally advertised infrastructure space
        #: (Section 6's record-keeping complication).
        self.internal_prefixes: List[Prefix] = []
        #: Provider ASNs (upstreams); tier-1s have none.
        self.providers: List[int] = []
        self.routers: List[Router] = []
        self.plan = SubnetPlan(asn)
        self.policy = ASPolicy()
        self.address_plan = address_plan
        #: For CPE ISPs: the single manufacturer OUI of deployed CPE.
        self.cpe_oui: Optional[int] = None
        #: MTU of this AS's internal links; tunnel-based networks (6to4,
        #: 6in4 transition infrastructure) run below the Ethernet 1500.
        self.link_mtu: int = 1500

    def __repr__(self) -> str:
        return "AS%d(%s, tier %d, %d routers)" % (
            self.asn,
            self.name,
            self.tier,
            len(self.routers),
        )


class GroundTruth:
    """Everything the evaluation may compare against."""

    __slots__ = (
        "ases",
        "bgp",
        "registry",
        "routers",
        "router_addresses",
        "subnets",
        "equivalent_asns",
    )

    def __init__(self) -> None:
        self.ases: Dict[int, AutonomousSystem] = {}
        #: Advertised prefix -> origin ASN (the public BGP table).
        self.bgp: PrefixTrie = PrefixTrie()
        #: Advertised + RIR-only prefixes -> ASN (what §6's augmentation
        #: recovers).
        self.registry: PrefixTrie = PrefixTrie()
        self.routers: Dict[int, Router] = {}
        #: Interface address -> Router (the complete discoverable surface).
        self.router_addresses: Dict[int, Router] = {}
        #: Leaf /64 base -> Subnet.
        self.subnets: Dict[int, Subnet] = {}
        #: ASN -> canonical ASN for operationally-equivalent AS families
        #: (mergers; §6's "equivalent ASNs" augmentation).
        self.equivalent_asns: Dict[int, int] = {}

    def canonical_asn(self, asn: int) -> int:
        return self.equivalent_asns.get(asn, asn)

    def all_router_addresses(self) -> Set[int]:
        return set(self.router_addresses)

    def all_host_addresses(self) -> List[int]:
        result: List[int] = []
        for subnet in self.subnets.values():
            result.extend(subnet.host_addresses())
        return result

    def subnet_of(self, addr: int) -> Optional[Subnet]:
        return self.subnets.get(addr & ~((1 << 64) - 1))

    def origin_asn(self, addr: int) -> Optional[int]:
        match = self.bgp.longest_match(addr)
        return match[1] if match else None


#: A single forwarding hop as materialized in a path: the router, the
#: interface address sourcing its ICMPv6 errors on this path, and the
#: one-way cumulative propagation delay from the vantage in microseconds.
Hop = Tuple[Router, int, int]
