"""The packet-level simulated internet.

:class:`Internet` accepts raw IPv6 packet bytes injected at a vantage
point and returns the (virtual-time-delayed) response bytes a real
network would produce: ICMPv6 Time Exceeded from the hop where the hop
limit expires (subject to that router's token bucket), Destination
Unreachable flavours from route/allocation/neighbour failures and
firewalls, Echo Replies / port unreachables / TCP RSTs from end hosts.

Paths are compiled lazily per (vantage, destination /64, ECMP variant)
and cached; per-probe work after the first probe to a /64 is O(1) plus
packet parse/build.  ECMP choice points (multi-homing, parallel cores)
are resolved by the packet's flow hash, so a Paris-style prober with
constant headers sees a stable path while a naive prober flaps.

Two caches sit in front of a probe's path.  Per /64 (per address for a
router's own interface) and per vantage AS and variant, the compiled
path, kept for the instance's life: compilation is a pure function of
the read-only world.  Per flow, a run-scoped table with one slot per
destination address: the flow of the last well-formed probe sent there
(its first 44 bytes less the hop limit, every byte the header check,
the vantage lookup, the flow hash and the path lookup read) with the
vantage, next header and path it resolved to.  A probe repeating its
destination's flow, as every probe of a Yarrp6 target does, skips those
four steps; any other takes them and overwrites the slot.  A malformed
probe or one from an unknown vantage raises every time and is never
stored.  The rewind (:meth:`Internet.reset_dynamics`) empties the flow
table and keeps the paths.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from ..addrs.prefix import Prefix
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import NULL_PROFILER, WallProfiler
from ..packet import fragment, icmpv6, ipv6, tcp
from ..packet.icmpv6 import UnreachableCode
from ..packet.ipv6 import PROTO_ICMPV6, PROTO_TCP, PROTO_UDP, IPv6Header
from .build import BuiltInternet, InternetConfig, Vantage, build_internet
from .ecmp import flow_variant
from .ratelimit import BucketObserver, TokenBucket
from .topology import Hop, Router, Subnet


class TerminalKind(enum.Enum):
    """What happens to a probe that outlives every hop on its path."""

    LAN = "lan"          # delivered onto the destination /64
    ROUTER = "router"    # the destination is a router's own interface
    ERROR = "error"      # ICMPv6 error from the last hop router


class CompiledPath:
    """A materialized forwarding path for one (vantage, /64, variant)."""

    __slots__ = (
        "hops",
        "terminal",
        "error_code",
        "subnet",
        "filter_index",
        "filter_action",
        "blocked",
    )

    def __init__(
        self,
        hops: List[Tuple[Router, int, int]],
        terminal: TerminalKind,
        error_code: Optional[UnreachableCode] = None,
        subnet: Optional[Subnet] = None,
        filter_index: Optional[int] = None,
        filter_action: str = "drop",
        blocked: Optional[frozenset] = None,
    ) -> None:
        #: [(router, source interface address, one-way cumulative µs)].
        self.hops = hops
        self.terminal = terminal
        self.error_code = error_code
        self.subnet = subnet
        #: 1-based hop position of the filtering border, if any; probes
        #: needing to travel past it with a blocked protocol are filtered.
        self.filter_index = filter_index
        self.filter_action = filter_action
        self.blocked = blocked or frozenset()

    @property
    def length(self) -> int:
        return len(self.hops)


class Response(tuple[int, bytes]):
    """A response packet headed back to the vantage: ``Response((delay_us,
    data))``.  A tuple, so making one runs no Python ``__init__``."""

    __slots__ = ()

    #: Round trip in µs, from the probe's injection to the response's arrival.
    delay_us = property(itemgetter(0))
    #: The response packet's bytes.
    data = property(itemgetter(1))


class InternetStats:
    """Aggregate counters over everything the internet saw.

    A fresh block replaces ``Internet.stats`` wholesale on every rewind,
    so every counter is per-run by construction."""

    __slots__ = (
        "probes",
        "time_exceeded",
        "echo_replies",
        "unreachables",
        "rate_limited",
        "filtered",
        "silent_terminal",
        "tcp_responses",
        "lost",
        "packet_too_big",
    )

    def __init__(self) -> None:
        self.probes = 0
        self.time_exceeded = 0
        self.echo_replies = 0
        self.unreachables = 0
        self.rate_limited = 0
        self.filtered = 0
        self.silent_terminal = 0
        self.tcp_responses = 0
        self.lost = 0
        #: No model path counts one; kept because run digests include it.
        self.packet_too_big = 0


class RouterState:
    """What one run has changed about one router: its limiter's bucket,
    its RFC 6946 atomic-fragment holds and its fragment Identification
    counter.  ``Internet`` creates one, in just-built state, on the
    router's first limiter decision or first sub-1280 Packet Too Big,
    and forgets them all on the rewind."""

    __slots__ = (
        "limiter",
        "frag_drift",
        "atomic_frag_until",
        "_frag_value",
        "_frag_last",
    )

    def __init__(self, router: Router) -> None:
        self.limiter = TokenBucket(router.rate, router.burst)
        self.frag_drift = router.frag_drift
        #: Per-source expiry of the RFC 6946 atomic-fragment state set by
        #: a sub-1280 Packet Too Big.
        self.atomic_frag_until: Dict[int, int] = {}
        # The router-wide Identification counter all interfaces share —
        # the very property alias resolution exploits.  Seeded from the
        # id, so every run replays the identical ID stream.
        self._frag_value = (router.router_id * 2246822519) & 0xFFFFFFFF
        self._frag_last = 0

    def note_packet_too_big(self, source: int, now: int, hold_us: int = 600_000_000) -> None:
        """Record that ``source`` sent a PTB below the minimum MTU: replies
        to it carry atomic fragments for the holding period (RFC 6946)."""
        self.atomic_frag_until[source] = now + hold_us

    def atomic_active(self, source: int, now: int) -> bool:
        return self.atomic_frag_until.get(source, -1) >= now

    def frag_identification(self, now: int) -> int:
        """Next fragment Identification: one shared, monotonically
        advancing counter per router, plus background-traffic drift."""
        if now > self._frag_last:
            self._frag_value += int(
                self.frag_drift * (now - self._frag_last) / 1_000_000
            )
            self._frag_last = now
        self._frag_value = (self._frag_value + 1) & 0xFFFFFFFF
        return self._frag_value


def _covering(sorted_prefixes: Sequence[Prefix], value: int) -> Optional[Prefix]:
    """Find the prefix in a sorted list covering ``value``, if any."""
    if not sorted_prefixes:
        return None
    index = bisect_right(sorted_prefixes, Prefix(value, 128)) - 1
    if index >= 0 and sorted_prefixes[index].contains(value):
        return sorted_prefixes[index]
    return None


def check_vantage(name: str, configured: Collection[str]) -> None:
    """Raise ``ValueError`` unless ``name`` is one of the ``configured``
    vantage names (a built world's, or a config's before anything is built)."""
    if name not in configured:
        raise ValueError(
            "unknown vantage %r (configured: %s)"
            % (name, ", ".join(sorted(configured)))
        )


def _hop_delay(router: Router, tier: int) -> int:
    """Deterministic per-router one-way link delay in microseconds."""
    jitter = (router.router_id * 2654435761) & 0xFFFFFFFF
    if tier <= 2:
        return 2000 + jitter % 9000
    return 250 + jitter % 900


class Internet:
    """Facade over a built ground-truth internet.

    Use :meth:`probe` for raw-bytes injection (what the probers do) or
    :meth:`trace_path` to inspect ground-truth paths (what the tests and
    validation do).

    The built world is read-only; everything a campaign changes lives
    here: ``stats``, the per-router ``router_state`` table, the per-flow
    ``_flows`` table (one slot per destination address), the loss RNG
    and the limiter telemetry hook are rewound by :meth:`fresh_run_state`,
    so two instances over one world never see each other's campaigns.
    ``_path_cache`` (per /64, vantage AS and variant) survives the rewind
    — path compilation is a pure function of the immutable topology.
    Both halves are checked by fingerprint in
    ``tests/netsim/test_world_readonly.py`` (docs/determinism.md).
    """

    @classmethod
    def from_config(
        cls,
        config: Optional[InternetConfig] = None,
        profiler: Optional[WallProfiler] = None,
    ) -> "Internet":
        """Rebuild the full simulated internet from its spec.

        Worlds are pure functions of their :class:`InternetConfig` (every
        quantity is drawn from the config's seed), so a config is all a
        parallel shard worker needs to reconstruct the identical internet
        in its own process — no topology object ever crosses a pipe.

        ``profiler`` attributes the build's host cost to a ``world.build``
        phase, with one child per build step (:func:`build_internet`) and
        a ``facade`` child (wall-clock reporting only; the built world is
        identical with or without it).  The facade is constructed inside
        the phase: the build suspends the cyclic collector, so the first
        allocation after it pays for a young-generation pass over the
        whole new world, and that pass is the build's cost, not the
        caller's; ``facade`` holds it.
        """
        prof = profiler if profiler is not None else NULL_PROFILER
        with prof.phase("world.build"):
            built = build_internet(config, prof)
            with prof.phase("facade"):
                return cls(built)

    def __init__(self, built: Optional[BuiltInternet] = None, config: Optional[InternetConfig] = None) -> None:
        if built is None:
            built = build_internet(config)
        self.built = built
        self.truth = built.truth
        self.config = built.config
        self._path_cache: Dict[Tuple[int, int, int], CompiledPath] = {}
        self._vantage_by_addr: Dict[int, Vantage] = {
            vantage.address: vantage for vantage in built.vantages.values()
        }
        self._tier: Dict[int, int] = {
            asn: asys.tier for asn, asys in self.truth.ases.items()
        }
        # Run-fresh by construction: the rewind is the initialiser.
        self.fresh_run_state()

    # ------------------------------------------------------------------
    # Path compilation
    # ------------------------------------------------------------------
    def vantage(self, name: str) -> Vantage:
        check_vantage(name, self.built.vantages)
        return self.built.vantages[name]

    def reset_dynamics(self) -> None:
        """Forget every router's limiter and probing state (atomic-fragment
        holds, fragment Identification counters) and every flow slot, and
        zero the stats — used between campaigns so trials don't
        contaminate each other.  O(1): a router's state reappears,
        just-built, when a probe next needs it, and a slot on its
        destination's next probe."""
        #: router_id -> what this run changed about that router: exactly
        #: the routers that made a limiter decision or took a sub-1280
        #: Packet Too Big since the last rewind.
        self.router_state: Dict[int, RouterState] = {}
        #: Destination's 16 bytes -> (flow, vantage, next header, path) of
        #: the last well-formed probe sent there: one slot per destination,
        #: overwritten when another flow takes it.
        self._flows: Dict[bytes, Tuple[bytes, Vantage, int, CompiledPath]] = {}
        self.stats = InternetStats()

    def fresh_run_state(self) -> None:
        """Restore every run-scoped bit of state to the just-built value,
        so the next campaign on this instance behaves exactly as if the
        world had been rebuilt from its config.

        This is what lets the parallel runner share ONE built world across
        shard campaigns (fork-inherited or run serially in-process) instead
        of paying :func:`~repro.netsim.build.build_internet` once per
        shard: :meth:`reset_dynamics` drops limiters, probing state, flow
        slots and stats, the loss/response RNG is reseeded to its
        constructor value, and the telemetry hook is unbound.  The path
        cache survives — path compilation is a pure function of the
        immutable topology, so a warm cache changes nothing observable.
        Unlike :meth:`reset_dynamics` alone, which deliberately lets the
        RNG stream continue across trials, this is a full rewind.
        """
        self.reset_dynamics()
        self._rng = random.Random(self.config.seed ^ 0x5EED)
        self.detach_observers()

    def _state_of(self, router: Router) -> RouterState:
        """``router``'s entry in the run table, created just-built on first use."""
        state = self.router_state.get(router.router_id)
        if state is None:
            state = self.router_state[router.router_id] = RouterState(router)
        return state

    def attach_observers(self, registry: MetricsRegistry) -> None:
        """Wire the routers' rate-limiter decisions into telemetry.

        One observer closure records the Figure 5 raw inputs — per-virtual-
        bucket allowed and denied decision series plus the post-decision
        token-level distribution — in ``registry``.  The observer is a
        pure recorder and never influences decisions; remove it with
        :meth:`detach_observers` once the campaign ends.
        """
        allowed_series = registry.series("ratelimit.allowed")
        denied_series = registry.series("ratelimit.denied")
        levels = registry.histogram(
            "ratelimit.token_level",
            bounds=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
        )
        infinity = float("inf")

        def observe(router_id: int, now: int, allowed: bool, tokens: float) -> None:
            if allowed:
                allowed_series.record(now)
            else:
                denied_series.record(now)
            if tokens != infinity:
                levels.observe(tokens)

        #: Called after every limiter decision (None: nobody listens).
        self._limiter_observer: Optional[BucketObserver] = observe

    def detach_observers(self) -> None:
        """Remove the observer installed by :meth:`attach_observers`."""
        self._limiter_observer = None

    def path_for(self, vantage: Vantage, dst: int, variant: int = 0) -> CompiledPath:
        """The compiled path from ``vantage`` toward ``dst`` for an ECMP
        variant; cached per destination /64 — except router-interface
        destinations, which terminate at a specific address and must not
        share cache entries with hosts in the same /64."""
        if dst in self.truth.router_addresses:
            key = (vantage.asn, dst, variant & 3)
        else:
            key = (vantage.asn, dst >> 64, variant & 3)
        path = self._path_cache.get(key)
        if path is None:
            path = self._compile_path(vantage, dst, variant & 3)
            self._path_cache[key] = path
        return path

    def _compile_path(self, vantage: Vantage, dst: int, variant: int) -> CompiledPath:
        built = self.built
        hops: List[Hop] = []
        cum = 0
        # Border filtering, decided below once the destination AS is known.
        filter_index: Optional[int] = None
        filter_action = "drop"
        blocked: frozenset = frozenset()

        def push(router: Router, iface: int) -> None:
            nonlocal cum
            cum += _hop_delay(router, self._tier.get(router.asn, 3))
            hops.append((router, iface, cum))

        def finish(
            terminal: TerminalKind,
            error_code: Optional[UnreachableCode] = None,
            subnet: Optional[Subnet] = None,
        ) -> CompiledPath:
            return CompiledPath(
                hops, terminal, error_code, subnet,
                filter_index, filter_action, blocked,
            )

        for router, iface in vantage.premise_chain:
            push(router, iface)

        match = self.truth.bgp.longest_match(dst)
        provider_asn = built.uplinks[vantage.asn][0]
        self._push_transit(push, provider_asn, variant)
        if match is None:
            # Full-table transit: no route.
            return finish(TerminalKind.ERROR, UnreachableCode.NO_ROUTE)

        dst_prefix, dst_asn = match
        dst_as = self.truth.ases[dst_asn]

        # AS-level route: up from the vantage's provider toward the
        # backbone, then down to the destination AS.
        as_path = self._as_route(provider_asn, dst_asn, variant)
        for asn in as_path:
            self._push_transit(push, asn, variant)

        if dst_asn != vantage.asn and dst_asn not in (provider_asn, *as_path):
            self._push_transit(push, dst_asn, variant)

        # Border filtering applies where traffic enters the destination AS.
        blocked = frozenset(dst_as.policy.blocked_protocols)
        if blocked:
            filter_index = len(hops) - 1 if hops else 0
            filter_action = dst_as.policy.prohibit_action

        # A probe aimed at a router's own (routed) interface address —
        # e.g. an infrastructure link address harvested by reverse-DNS
        # walking — terminates at that router, which answers like a host.
        owner = self.truth.router_addresses.get(dst)
        if owner is not None:
            push(owner, dst)
            return finish(TerminalKind.ROUTER)

        # Internal descent: distribution -> aggregation -> gateway.
        dist = _covering(built.dist_index.get(dst_asn, ()), dst)
        if dist is None:
            return finish(TerminalKind.ERROR, UnreachableCode.NO_ROUTE)
        options = built.dist_routers[dist.base]
        router, iface = options[variant % len(options)]
        push(router, iface)

        alloc = _covering(built.alloc_index.get(dst_asn, ()), dst)
        if alloc is None or not dist.covers(alloc):
            return finish(TerminalKind.ERROR, UnreachableCode.ADDRESS_UNREACHABLE)
        options = built.agg_routers[alloc.base]
        router, iface = options[variant % len(options)]
        push(router, iface)

        subnet = self.truth.subnet_of(dst)
        if subnet is None:
            return finish(TerminalKind.ERROR, UnreachableCode.ADDRESS_UNREACHABLE)
        push(subnet.gateway, subnet.gateway_addr)
        return finish(TerminalKind.LAN, subnet=subnet)

    def _push_transit(
        self, push: Callable[[Router, int], None], asn: int, variant: int
    ) -> None:
        """Append an AS's ingress border and a core router."""
        borders = self.built.borders.get(asn, ())
        if borders:
            router, iface = borders[variant % len(borders)]
            push(router, iface)
        cores = self.built.cores.get(asn, ())
        if cores:
            router, iface = cores[variant % len(cores)]
            push(router, iface)

    def _as_route(self, from_asn: int, dst_asn: int, variant: int) -> List[int]:
        """Valley-free AS hops strictly between the vantage's provider and
        the destination AS (which contribute their own hops separately)."""
        built = self.built
        if dst_asn == from_asn:
            return []
        dst_as = self.truth.ases[dst_asn]
        if dst_as.tier == 1:
            return []
        # Providers of the destination.
        dst_providers = built.uplinks.get(dst_asn, [])
        if from_asn in dst_providers:
            return []
        if dst_as.tier == 2:
            # from (T2) -> shared T1 -> dst T2.
            t1 = self._pick_shared_tier1(from_asn, dst_asn, variant)
            return t1
        # Destination is edge: descend via one of its providers.
        dst_provider = dst_providers[variant % len(dst_providers)] if dst_providers else None
        route: List[int] = []
        if dst_provider is not None and dst_provider != from_asn:
            route.extend(self._pick_shared_tier1(from_asn, dst_provider, variant))
            route.append(dst_provider)
        return route

    def _pick_shared_tier1(self, a_asn: int, b_asn: int, variant: int) -> List[int]:
        """Tier-1 hops linking two tier-2 ASes (empty when directly akin)."""
        built = self.built
        a_ups = built.uplinks.get(a_asn, [])
        b_ups = built.uplinks.get(b_asn, [])
        shared = [asn for asn in a_ups if asn in b_ups]
        if shared:
            return [shared[variant % len(shared)]]
        if a_ups and b_ups:
            # Distinct: a common uplink would be in ``shared``.
            return [a_ups[variant % len(a_ups)], b_ups[variant % len(b_ups)]]
        return []

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def probe(self, data: bytes, now: int) -> Optional[Response]:
        """Inject probe bytes at virtual time ``now``; the vantage is
        identified by the packet's source address.  Returns the response
        (with its arrival delay) or None when the network stays silent."""
        self.stats.probes += 1
        # The probe's flow: every byte the steps below read to find its
        # vantage and path, i.e. the first 44 less the hop limit.  Its
        # destination's slot skips them when it holds this very flow.
        flow = data[:7] + data[8:44]
        dst_bytes = data[24:40]
        slot = self._flows.get(dst_bytes)
        if slot is not None and slot[0] == flow:
            _, vantage, next_header, path = slot
            hop_limit = data[7]
        else:
            first_word, _, next_header, hop_limit, src_high, src_low, dst_high, dst_low = (
                ipv6.header_fields(data)
            )
            src = (src_high << 64) | src_low
            vantage = self._vantage_by_addr.get(src)
            if vantage is None:
                raise ValueError("probe source %x is not a configured vantage" % src)
            dst = (dst_high << 64) | dst_low
            path = self.path_for(
                vantage, dst, flow_variant(src, dst, next_header, first_word & 0xFFFFF, data)
            )
            self._flows[dst_bytes] = (flow, vantage, next_header, path)
        # RFC 8200: the first router discards a packet that arrives with
        # hop limit 0 and reports it, as it does one with hop limit 1.
        hop_limit = hop_limit or 1

        # Who would answer with an ICMPv6 error, and with which one: at
        # most one (hop, type, code), first match wins.
        if (
            path.filter_index is not None
            and next_header in path.blocked
            and hop_limit > path.filter_index
        ):
            self.stats.filtered += 1
            if path.filter_action != "admin":
                return None
            hop = path.hops[path.filter_index - 1] if path.filter_index else path.hops[-1]
            msg_type = icmpv6.TYPE_DEST_UNREACH
            code = int(UnreachableCode.ADMIN_PROHIBITED)
        elif hop_limit <= len(path.hops):
            hop = path.hops[hop_limit - 1]
            msg_type = icmpv6.TYPE_TIME_EXCEEDED
            code = icmpv6.CODE_HOP_LIMIT_EXCEEDED
        elif path.terminal is TerminalKind.ERROR:
            # From here the probe outlives the path: terminal behaviour.
            if not path.hops:
                return None
            hop = path.hops[-1]
            msg_type = icmpv6.TYPE_DEST_UNREACH
            code = int(path.error_code)
        elif path.terminal is TerminalKind.ROUTER:
            # The router answers probes to its own interface address.
            router, _, delay = path.hops[-1]
            return self._host_response(data, delay, responder=router, now=now)
        else:
            return self._deliver_lan(
                path, data, vantage.address, int.from_bytes(dst_bytes, "big"),
                next_header, now,
            )
        return self._icmp_error(
            hop, msg_type, code, 0, data, next_header, vantage.address, now
        )

    def answer(self, data: bytes, when: int) -> Optional[Tuple[int, bytes]]:
        """Inject probe bytes at virtual time ``when`` and say what comes
        back: ``(arrival time, response bytes)``, or None when the network
        stays silent.  The one reader of a :class:`Response`'s round trip:
        the caller holds the reply until its clock reaches the arrival."""
        response = self.probe(data, when)
        if response is None:
            return None
        return when + response.delay_us, response.data

    def _deliver_lan(
        self,
        path: CompiledPath,
        data: bytes,
        src: int,
        dst: int,
        next_header: int,
        now: int,
    ) -> Optional[Response]:
        subnet = path.subnet
        _, _, delay = path.hops[-1]
        delay += 100  # LAN hop
        # The gateway's own LAN address never gets here: it is a router
        # address, so its path ends in TerminalKind.ROUTER.
        if subnet.aliased or subnet.has_host(dst):
            return self._host_response(data, delay, now=now)
        # Neighbour discovery fails; the gateway may report it.
        if self._rng.random() < self.config.gateway_unreach_probability:
            return self._icmp_error(
                path.hops[-1],
                icmpv6.TYPE_DEST_UNREACH,
                int(UnreachableCode.ADDRESS_UNREACHABLE),
                0,
                data,
                next_header,
                src,
                now,
            )
        self.stats.silent_terminal += 1
        return None

    def _host_response(
        self,
        data: bytes,
        delay: int,
        responder: Optional[Router] = None,
        now: int = 0,
    ) -> Optional[Response]:
        """Terminal response from the destination of probe ``data`` itself
        — an end host, or a router answering for one of its own addresses
        (``responder``).  The one branch that replies from a header object."""
        if self._rng.random() < self.config.response_loss:
            self.stats.lost += 1
            return None
        header, payload = ipv6.split_packet(data)
        host = header.dst
        if header.next_header == PROTO_ICMPV6:
            try:
                request = icmpv6.ICMPv6Message.unpack(payload)
            except ipv6.PacketError:
                return None
            if request.msg_type == icmpv6.TYPE_PACKET_TOO_BIG:
                # A too-small-MTU report: routers honour it by emitting
                # atomic fragments toward the reporter (RFC 6946) — the
                # state speedtrap alias resolution plants.
                if responder is not None and request.word < icmpv6.MINIMUM_MTU:
                    self._state_of(responder).note_packet_too_big(
                        header.src, now + delay
                    )
                return None
            if request.msg_type != icmpv6.TYPE_ECHO_REQUEST:
                return None
            reply = icmpv6.echo_reply(
                request.identifier, request.sequence, request.body
            )
            reply_segment = reply.pack(host, header.src)
            next_header = PROTO_ICMPV6
            # Only a router that took a sub-1280 PTB this run holds any.
            state = None if responder is None else self.router_state.get(responder.router_id)
            if state is not None and state.atomic_active(header.src, now + delay):
                reply_segment = fragment.wrap_atomic(
                    PROTO_ICMPV6,
                    state.frag_identification(now + delay),
                    reply_segment,
                )
                next_header = fragment.PROTO_FRAGMENT
            packet = ipv6.build_packet(
                IPv6Header(host, header.src, 0, next_header),
                reply_segment,
            )
            self.stats.echo_replies += 1
            return Response((2 * delay + 150, packet))
        if header.next_header == PROTO_UDP:
            # Closed port: the host itself sends port unreachable — but
            # end hosts rate-limit their own ICMPv6 errors hard.
            if self._rng.random() > self.config.host_error_probability:
                self.stats.silent_terminal += 1
                return None
            packet = icmpv6.error_packet(
                host,
                header.src,
                icmpv6.TYPE_DEST_UNREACH,
                int(UnreachableCode.PORT_UNREACHABLE),
                0,
                ipv6.build_packet(header, payload),
            )
            self.stats.unreachables += 1
            return Response((2 * delay + 150, packet))
        if header.next_header == PROTO_TCP:
            try:
                seg, _ = tcp.split_segment(payload)
            except ipv6.PacketError:
                return None
            rst = tcp.TCPHeader(
                seg.dst_port,
                seg.src_port,
                seq=0,
                ack=seg.seq + 1,
                flags=tcp.FLAG_RST | tcp.FLAG_ACK,
            )
            packet = ipv6.build_packet(
                IPv6Header(host, header.src, 0, PROTO_TCP),
                tcp.build_segment(host, header.src, rst),
            )
            self.stats.tcp_responses += 1
            return Response((2 * delay + 150, packet))
        return None

    def _icmp_error(
        self,
        hop: Hop,
        msg_type: int,
        code: int,
        word: int,
        invoking: bytes,
        next_header: int,
        src: int,
        now: int,
    ) -> Optional[Response]:
        """Does ``hop``'s router send the error :meth:`probe` decided on?
        Its response knobs, then its limiter, then reverse-path loss.
        ``next_header`` and ``src`` are those of the ``invoking`` packet."""
        router, iface, delay = hop
        # Protocol-selective hops (observed in the wild, Section 4.2).
        if (
            router.respond_protocols is not None
            and next_header not in router.respond_protocols
        ):
            return None
        if router.response_probability < 1.0 and (
            self._rng.random() > router.response_probability
        ):
            return None
        # Mandated ICMPv6 error rate limiting, evaluated when the packet
        # actually reaches the router in virtual time.
        limiter = (self.router_state.get(router.router_id) or self._state_of(router)).limiter
        allowed = limiter.consume(now + delay)
        if self._limiter_observer is not None:
            self._limiter_observer(
                router.router_id, now + delay, allowed, limiter.tokens
            )
        if not allowed:
            self.stats.rate_limited += 1
            return None
        if self._rng.random() < self.config.response_loss:
            self.stats.lost += 1
            return None
        if msg_type == icmpv6.TYPE_TIME_EXCEEDED:
            self.stats.time_exceeded += 1
        elif msg_type == icmpv6.TYPE_DEST_UNREACH:
            self.stats.unreachables += 1
        behaviour = self.mangling(router.router_id)
        if behaviour is not None:
            invoking = self._quote(behaviour, invoking)
        packet = icmpv6.error_packet(iface, src, msg_type, code, word, invoking)
        return Response((2 * delay + 200, packet))

    @staticmethod
    def mangling(router_id: int) -> Optional[str]:
        """How a router misquotes the invoking packet: ``"rewrite"`` for
        0.5 % of router ids, ``"truncate"`` for another 1 %, else
        ``None`` — a pure function of the id."""
        roll = (router_id * 1103515245 + 12345) % 10_000
        if roll < 50:
            return "rewrite"
        if roll < 150:
            return "truncate"
        return None

    @staticmethod
    def _quote(behaviour: str, invoking: bytes) -> bytes:
        """The quotation of a router that misquotes the ``invoking``
        packet as :meth:`mangling` says (``error_packet`` bounds it to
        the minimum MTU); every other router quotes it verbatim."""
        if behaviour == "truncate":
            # IPv4-style minimal quote: IPv6 header + 8 bytes.
            return invoking[:48]
        # "rewrite": a middlebox rewrote the destination's low bits.
        mangled = bytearray(invoking[: icmpv6.MAX_QUOTATION])
        if len(mangled) >= 40:
            mangled[38] ^= 0x55
        return bytes(mangled)

    # ------------------------------------------------------------------
    # Ground-truth inspection helpers (tests / validation)
    # ------------------------------------------------------------------
    def trace_path(self, vantage_name: str, dst: int, variant: int = 0) -> CompiledPath:
        return self.path_for(self.vantage(vantage_name), dst, variant)
