"""Tests for ground-truth internet generation."""

import gc
import hashlib
import pickle
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.addrs import classify_address, classify_set, IIDClass
from repro.addrs.prefix import Prefix
from repro.netsim import (
    Internet,
    InternetConfig,
    VantageConfig,
    build_internet,
    decoupled_dynamics,
)
from repro.netsim import build
from repro.netsim.topology import AddressPlan, RouterRole
from repro.prober import run_yarrp6


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = build_internet(InternetConfig(n_edge=10, cpe_customers_per_isp=50, seed=3))
        b = build_internet(InternetConfig(n_edge=10, cpe_customers_per_isp=50, seed=3))
        assert a.truth.all_router_addresses() == b.truth.all_router_addresses()
        assert set(a.truth.subnets) == set(b.truth.subnets)
        assert sorted(a.truth.all_host_addresses()) == sorted(b.truth.all_host_addresses())

    def test_different_seed_different_world(self):
        a = build_internet(InternetConfig(n_edge=10, cpe_customers_per_isp=50, seed=3))
        b = build_internet(InternetConfig(n_edge=10, cpe_customers_per_isp=50, seed=4))
        assert a.truth.all_router_addresses() != b.truth.all_router_addresses()


def _prefixes(prefixes):
    return [(prefix.base, prefix.length) for prefix in prefixes]


def _hops(hops):
    return [(router.router_id, addr) for router, addr in hops]


def world_digest(built, rng):
    """sha256 over everything ``BuiltInternet`` holds, in the order it
    holds it, and over the builder RNG's end state (as many draws, not
    just the same visible values)."""
    truth = built.truth
    parts = [
        [
            (
                key, r.router_id, r.asn, r.role.value, r.rate, r.burst, r.interfaces,
                r.respond_protocols and sorted(r.respond_protocols),
                r.response_probability, r.frag_drift,
            )
            for key, r in truth.routers.items()
        ],
        [(addr, r.router_id) for addr, r in truth.router_addresses.items()],
        [
            (
                key, s.prefix.base, s.prefix.length, s.gateway.router_id, s.gateway_addr,
                s.host_iids, s.www_client_iids, s.aliased,
            )
            for key, s in truth.subnets.items()
        ],
        [
            (
                key, a.asn, a.name, a.tier, _prefixes(a.prefixes), _prefixes(a.internal_prefixes),
                a.providers, [r.router_id for r in a.routers], a.plan.asn,
                _prefixes(a.plan.distribution), _prefixes(a.plan.allocations),
                [leaf.prefix.base for leaf in a.plan.leaves],
                sorted(a.policy.blocked_protocols), a.policy.prohibit_action,
                a.address_plan.value, a.cpe_oui, a.link_mtu,
            )
            for key, a in truth.ases.items()
        ],
        [(p.base, p.length, asn) for p, asn in truth.bgp.items()],
        [(p.base, p.length, asn) for p, asn in truth.registry.items()],
        list(truth.equivalent_asns.items()),
        [built.tier1_asns, built.tier2_asns, built.edge_asns, built.cpe_asns],
        [(asn, _hops(hops)) for asn, hops in built.borders.items()],
        [(asn, _hops(hops)) for asn, hops in built.cores.items()],
        [(base, _hops(hops)) for base, hops in built.dist_routers.items()],
        [(base, _hops(hops)) for base, hops in built.agg_routers.items()],
        list(built.uplinks.items()),
        [(asn, _prefixes(index)) for asn, index in built.dist_index.items()],
        [(asn, _prefixes(index)) for asn, index in built.alloc_index.items()],
        [
            (name, v.name, v.asn, v.address, _hops(v.premise_chain))
            for name, v in built.vantages.items()
        ],
        rng.getstate(),
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


#: The CI smoke world (``world --seed 5 --edge 30 --cpe 150``).
SMOKE = InternetConfig(seed=5, n_edge=30, cpe_customers_per_isp=150)
#: The ``cli-chain`` world (``world --edge 40 --cpe 2000``): 250 customers
#: in each of 8 pools per region, where the smoke world's pools hold ~18.
CHAIN = InternetConfig(seed=2018, n_edge=40, cpe_customers_per_isp=2000)

#: config -> ``world_digest`` of its build, recorded from the tree before
#: PR 23 (per-draw ``randint`` / ``uniform`` / MAC tuples / checked
#: ``Prefix``), the ``chain`` row from the tree before the leaf kernel
#: (``_Builder.add_leaves``): the build may change how a value is drawn,
#: never which, in what order, or how many.
PINNED = [
    (SMOKE, "5b25cff49c3d5b469f294fd678e40cdeecbc147b1177b3cad919668f8dbffa69"),
    (
        decoupled_dynamics(SMOKE),
        "e98a31275d1416e1a00495886616e3a20e8da84e5fa37aa65942bc1876e20e68",
    ),
    (
        replace(
            SMOKE,
            edge_slash48_fraction=1.0,
            unadvertised_infra_fraction=1.0,
            tunnel_fraction=1.0,
        ),
        "90f327197b119b099e4e3254969a43f9efbaa31a1f28fc428dbc2337bd013c44",
    ),
    (
        replace(SMOKE, include_6to4=False, equivalent_families=0, n_cpe_isps=3),
        "1c7c2583dd85373d665338b487cb8d6825372c62b01516e2b5019da7fa167294",
    ),
    (
        replace(
            SMOKE,
            silent_router_fraction=0.5,
            icmp_only_router_fraction=0.5,
            aliased_subnet_fraction=0.5,
        ),
        "75098beed79118cc3f9b8c2a15f58b9f67024ac4815bb9d4d82959c9950e658f",
    ),
    # Width-1 ranges, leaves with no host, one customer per pool.
    (
        replace(
            SMOKE,
            dist_per_edge=(1, 1),
            allocs_per_dist=(4, 4),
            leaves_per_alloc=(1, 2),
            hosts_per_leaf=(0, 8),
            cpe_customers_per_isp=1,
        ),
        "45ef04194cadebd38921d976b51cdc066cbfb2390ece1c67e8865d7bd11c6b50",
    ),
    (CHAIN, "f0ae1c3c59f4d298f33f2ecf7bec8d630ad86170dbca19a077c27262dab22fde"),
]


class TestWorldPinned:
    @pytest.mark.parametrize(
        "config, digest",
        PINNED,
        ids=[
            "smoke", "decoupled", "slash48-hidden-tunnel", "three-isps", "silent", "narrow",
            "chain",
        ],
    )
    def test_every_field_and_the_rng_end_state(self, config, digest):
        builder = build._Builder(config)
        assert world_digest(builder.build(), builder.rng) == digest


class TestCollectorState:
    """The build suspends the cyclic collector; the caller gets it back
    exactly as it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("raises", [False, True], ids=["builds", "raises"])
    def test_restored_as_found(self, enabled, raises, monkeypatch):
        config = InternetConfig(n_edge=6, cpe_customers_per_isp=10)
        if raises:
            # Mid-build: the backbone, edge and CPE phases have run.
            monkeypatch.setattr(build._Builder, "build_vantages", lambda self: 1 // 0)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if raises:
                with pytest.raises(ZeroDivisionError):
                    build_internet(config)
            else:
                build_internet(config)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestConfigChecked:
    """A config the builder would mis-draw from is refused whole, by
    field name, before a builder (and its RNG) exists — not by whichever
    stdlib call trips first part-way through the stream."""

    @pytest.mark.parametrize(
        "change, reason",
        [
            # Was: empty range for randrange() (4, 2, -2)
            ({"hosts_per_leaf": (4, 1)}, "world.hosts_per_leaf must be ints 0 <= low <= high"),
            ({"dist_per_edge": (-1, 2)}, "world.dist_per_edge must be ints 0 <= low <= high"),
            ({"allocs_per_dist": (1.0, 2)}, "world.allocs_per_dist must be ints"),
            ({"leaves_per_alloc": (2,)}, "world.leaves_per_alloc must be a (low, high) pair"),
            # Was: Sample larger than population or is negative
            ({"n_tier2": 0}, "world.n_tier2 must be at least 2"),
            ({"n_tier2": 1}, "world.n_tier2 must be at least 2"),
            # Was: an IndexError traceback from the first CPE customer
            ({"cpe_www_fractions": ()}, "world.cpe_www_fractions must not be empty"),
            # Were: built, as the n_edge=0 / n_cpe_isps=0 world
            ({"n_edge": -3}, "world.n_edge must be an int >= 0, not -3"),
            ({"n_cpe_isps": -1}, "world.n_cpe_isps must be an int >= 0, not -1"),
            ({"cpe_customers_per_isp": -5}, "world.cpe_customers_per_isp must be an int >= 0"),
            ({"n_tier1": 2.5}, "world.n_tier1 must be an int >= 0, not 2.5"),
            ({"equivalent_families": -1}, "world.equivalent_families must be an int >= 0"),
            # The limiter's own words, with the field's name in front.
            (
                {"edge_limit_rate": (0.0, 500.0)},
                "world.edge_limit_rate / edge_limit_burst: rate must be positive: 0.0",
            ),
            (
                {"core_limit_burst": (50.0, 0.5)},
                "world.core_limit_rate / core_limit_burst: burst must be at least 1: 0.5",
            ),
            (
                {"vantages": (VantageConfig("V", premise_limit=(-1.0, 5.0)),)},
                "world.vantages[V].premise_limit: rate must be positive: -1.0",
            ),
            (
                {"vantages": (VantageConfig("V", aggressive_limit=(5.0, 0.0)),)},
                "world.vantages[V].aggressive_limit: burst must be at least 1: 0.0",
            ),
            (
                {"vantages": (VantageConfig("V", premise_hops=-1),)},
                "world.vantages[V].premise_hops must be an int >= 0, not -1",
            ),
            # Were: built, without the aggressive hop asked for.
            (
                {"vantages": (VantageConfig("V", aggressive_hops=(9,)),)},
                "world.vantages[V].aggressive_hops[0] must be an int in 1..3, not 9",
            ),
            (
                {"vantages": (VantageConfig("V", premise_hops=6, aggressive_hops=(5, 0)),)},
                "world.vantages[V].aggressive_hops[1] must be an int in 1..6, not 0",
            ),
            (
                {"vantages": (VantageConfig("V", aggressive_hops=("3",)),)},
                "world.vantages[V].aggressive_hops[0] must be an int in 1..3, not '3'",
            ),
            (
                {"vantages": (VantageConfig("V", aggressive_hops=({"x": 1},)),)},
                "world.vantages[V].aggressive_hops[0] must be an int in 1..3, not {'x': 1}",
            ),
            # Was: built, the second overwriting the first after both drew.
            (
                {"vantages": (VantageConfig("A"), VantageConfig("A", premise_hops=5))},
                "world.vantages[A]: duplicate vantage name",
            ),
            ({"privacy_fraction": 1.5}, "world.privacy_fraction must be within [0, 1], not 1.5"),
            ({"gateway_unreach_probability": -0.1}, "world.gateway_unreach_probability must be"),
            ({"cpe_www_fractions": (0.5, 2.0)}, "world.cpe_www_fractions[1] must be within"),
            # Were: built, and at 2.0 every response was lost; at nan none was.
            ({"response_loss": 2.0}, "world.response_loss must be within [0, 1], not 2.0"),
            ({"response_loss": -0.1}, "world.response_loss must be within [0, 1], not -0.1"),
            ({"response_loss": float("nan")}, "world.response_loss must be within [0, 1], not nan"),
        ],
    )
    def test_refused_by_field_before_the_first_draw(self, change, reason, monkeypatch):
        def built_anyway(config):
            raise AssertionError("a builder was made for a refused config")

        monkeypatch.setattr(build, "_Builder", built_anyway)
        with pytest.raises(ValueError) as refusal:
            build_internet(replace(SMOKE, **change))
        assert str(refusal.value).startswith(reason), str(refusal.value)
        assert "\n" not in str(refusal.value)

    def test_the_edges_of_what_is_allowed_still_build(self):
        """Zero counts, width-1 ranges, fractions at 0 and 1."""
        built = build_internet(
            replace(
                SMOKE,
                n_tier1=0,
                n_tier2=2,
                n_edge=0,
                n_cpe_isps=0,
                equivalent_families=0,
                hosts_per_leaf=(0, 0),
                privacy_fraction=1.0,
                eui64_host_fraction=0.0,
            )
        )
        assert set(built.vantages) == {"US-EDU-1", "US-EDU-2", "EU-NET"}

    @pytest.mark.parametrize("loss", [0.0, 1.0])
    def test_a_response_loss_at_either_end_is_a_probability(self, loss):
        """The range is closed: 0 loses nothing, 1 loses every reply."""
        internet = Internet.from_config(replace(SMOKE, response_loss=loss))
        targets = [
            subnet.prefix.base | 1 for subnet in list(internet.truth.subnets.values())[:20]
        ]
        result = run_yarrp6(internet, "US-EDU-1", targets, max_ttl=6)
        assert result.sent > 0
        if loss:
            assert not result.records and internet.stats.lost > 0
        else:
            assert result.records and internet.stats.lost == 0


class TestFrameBudget:
    """The build is a kernel: what is constant per build is not re-derived
    per draw.  The contract is a count — exact, repeatable, the same on
    any host — of Python-level calls per router built."""

    #: 32.6 before PR 23 (``randint`` -> ``randrange`` -> ``_randbelow``,
    #: ``uniform`` twice a router, a validated MAC tuple per EUI-64 IID,
    #: a re-checked ``Prefix`` per subnet, three calls per host); 17.9
    #: after it (a call per leaf to ``populate_leaf``, ``draw_between``,
    #: ``give_interface``, ``eui64_draw``, ``leaf_hosts``, and one per host
    #: draw); 13.06 with the leaf kernel (``new_router``, ``Prefix._aligned``
    #: and ``Subnet`` per leaf, no call per host).  A helper re-wrapped
    #: around a per-host draw costs ~1.5, around a per-leaf one ~0.6: the
    #: first fails this bound.
    CALLS_PER_ROUTER = 14

    def test_python_calls_per_router_on_the_smoke_world(self):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            built = build_internet(SMOKE)
        finally:
            sys.setprofile(previous)
        assert calls / len(built.truth.routers) <= self.CALLS_PER_ROUTER


class TestStructure:
    def test_tiers_present(self, small_built):
        tiers = Counter(asys.tier for asys in small_built.truth.ases.values())
        assert tiers[1] == 4
        assert tiers[2] == 10
        assert tiers[3] > 40  # edges + CPE ISPs + vantage ASes + relay

    def test_vantages_built(self, small_built):
        assert set(small_built.vantages) == {"US-EDU-1", "US-EDU-2", "EU-NET"}
        assert len(small_built.vantages["US-EDU-2"].premise_chain) == 6
        assert len(small_built.vantages["US-EDU-1"].premise_chain) == 3

    def test_every_edge_has_provider(self, small_built):
        for asn in small_built.edge_asns + small_built.cpe_asns:
            providers = small_built.uplinks[asn]
            assert providers
            assert all(
                small_built.truth.ases[provider].tier == 2 for provider in providers
            )

    def test_bgp_covers_advertised_prefixes(self, small_built):
        for asys in small_built.truth.ases.values():
            for prefix in asys.prefixes:
                assert small_built.truth.bgp.lookup(prefix.base) == asys.asn

    def test_registry_superset_of_bgp(self, small_built):
        bgp_prefixes = set(small_built.truth.bgp.prefixes())
        registry_prefixes = set(small_built.truth.registry.prefixes())
        assert bgp_prefixes <= registry_prefixes

    def test_unadvertised_infra_exists(self):
        built = build_internet(
            InternetConfig(n_edge=60, cpe_customers_per_isp=50, seed=11)
        )
        hidden = [
            asys for asys in built.truth.ases.values() if asys.internal_prefixes
        ]
        assert hidden, "expected some registry-only infrastructure ASes"
        for asys in hidden:
            for prefix in asys.internal_prefixes:
                # Registry knows the prefix; BGP does not.
                assert built.truth.registry.lookup(prefix.base) == asys.asn
                assert built.truth.bgp.lookup(prefix.base) is None
            # Customers remain globally reachable.
            assert asys.prefixes

    def test_equivalent_asn_families(self, small_built):
        mapping = small_built.truth.equivalent_asns
        # At least one non-identity mapping was built.
        assert any(src != dst for src, dst in mapping.items())

    def test_6to4_relay_advertised(self, small_built):
        assert small_built.truth.bgp.lookup(Prefix.parse("2002::/16").base) is not None


class TestSubnets:
    def test_leaves_are_64(self, small_built):
        for subnet in small_built.truth.subnets.values():
            assert subnet.prefix.length == 64

    def test_leaves_inside_as_prefix(self, small_built):
        for asn in small_built.edge_asns:
            asys = small_built.truth.ases[asn]
            covering = asys.prefixes + asys.internal_prefixes
            for subnet in asys.plan.leaves:
                assert any(prefix.covers(subnet.prefix) for prefix in covering)

    def test_plan_hierarchy(self, small_built):
        for asn in small_built.edge_asns:
            plan = small_built.truth.ases[asn].plan
            for alloc in plan.allocations:
                assert any(dist.covers(alloc) for dist in plan.distribution)
            for leaf in plan.leaves:
                assert any(alloc.covers(leaf.prefix) for alloc in plan.allocations)

    def test_gateway_in_leaf_prefix(self, small_built):
        for subnet in small_built.truth.subnets.values():
            assert subnet.prefix.contains(subnet.gateway_addr)

    def test_conventional_gateways_lowbyte(self, small_built):
        """Non-CPE gateways carry the ::1 IID — the IA hack's premise."""
        cpe_asns = set(small_built.cpe_asns)
        for subnet in small_built.truth.subnets.values():
            if subnet.gateway.asn not in cpe_asns:
                assert subnet.gateway_addr == subnet.prefix.base | 1

    def test_cpe_gateways_eui64(self, small_built):
        for asn in small_built.cpe_asns:
            for subnet in small_built.truth.ases[asn].plan.leaves:
                assert classify_address(subnet.gateway_addr) is IIDClass.EUI64

    def test_hosts_inside_leaf(self, small_built):
        for subnet in small_built.truth.subnets.values():
            for addr in subnet.host_addresses():
                assert subnet.prefix.contains(addr)

    def test_www_clients_subset_of_hosts(self, small_built):
        for subnet in small_built.truth.subnets.values():
            assert set(subnet.www_client_iids) <= set(subnet.host_iids)


class TestAddressPlans:
    def test_cpe_interfaces_are_eui64(self, small_built):
        for asn in small_built.cpe_asns:
            asys = small_built.truth.ases[asn]
            assert asys.address_plan is AddressPlan.EUI64
            cpe_ifaces = [
                iface
                for router in asys.routers
                if router.role is RouterRole.CPE
                for iface in router.interfaces
            ]
            counts = classify_set(cpe_ifaces)
            assert counts[IIDClass.EUI64] == len(cpe_ifaces)

    def test_iid_mix_across_all_router_addresses(self, small_built):
        counts = classify_set(small_built.truth.all_router_addresses())
        # The internet must contain all three classes the paper observes.
        assert counts[IIDClass.LOWBYTE] > 0
        assert counts[IIDClass.EUI64] > 0
        assert counts[IIDClass.RANDOMIZED] > 0

    def test_interfaces_registered_on_routers(self, small_built):
        for addr, router in small_built.truth.router_addresses.items():
            assert addr in router.interfaces


class TestGroundTruthHelpers:
    def test_subnet_of(self, small_built):
        subnet = next(iter(small_built.truth.subnets.values()))
        addr = subnet.prefix.base | 0x1234
        assert small_built.truth.subnet_of(addr) is subnet

    def test_origin_asn(self, small_built):
        for asn in small_built.edge_asns[:5]:
            asys = small_built.truth.ases[asn]
            if asys.prefixes:
                assert small_built.truth.origin_asn(asys.prefixes[0].base) == asn

    def test_host_population_nonempty(self, small_built):
        hosts = small_built.truth.all_host_addresses()
        assert len(hosts) > 500


class TestPickleRoundTrip:
    """A built world survives pickle (so a spawn-started process can be
    handed one instead of rebuilding it): the copy pickles to the same
    bytes and a campaign on it dumps the same ``.yrp6``."""

    #: The CLI smoke world: ``world --edge 30 --cpe 150 --seed 5``.
    SMOKE = InternetConfig(n_edge=30, cpe_customers_per_isp=150, seed=5)

    @pytest.fixture(scope="class")
    def smoke(self):
        return build_internet(self.SMOKE)

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_the_smoke_world_round_trips(self, smoke, protocol):
        data = pickle.dumps(smoke, protocol)
        assert pickle.dumps(pickle.loads(data), protocol) == data

    def test_a_campaign_on_the_copy_dumps_the_same_bytes(self, smoke):
        from repro.prober import run_yarrp6
        from repro.prober.output import dumps

        targets = [subnet.prefix.base | 1 for subnet in smoke.truth.subnets.values()]
        copy = pickle.loads(pickle.dumps(smoke))
        original, copied = (
            run_yarrp6(Internet(world), "EU-NET", targets[:60], pps=5000, fill=True)
            for world in (smoke, copy)
        )
        assert original.records
        assert dumps(copied) == dumps(original)
