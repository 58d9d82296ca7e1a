"""Tests for ground-truth internet generation."""

import gc
from collections import Counter

import pytest

from repro.addrs import classify_address, classify_set, IIDClass
from repro.addrs.prefix import Prefix
from repro.netsim import InternetConfig, build_internet
from repro.netsim.topology import AddressPlan, RouterRole


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


class TestCollectorState:
    """The build suspends the cyclic collector; the caller gets it back
    exactly as it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("n_tier2", [10, 0], ids=["builds", "raises"])
    def test_restored_as_found(self, enabled, n_tier2):
        config = InternetConfig(n_edge=6, cpe_customers_per_isp=10, n_tier2=n_tier2)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if n_tier2:
                build_internet(config)
            else:
                # No tier-2 to sample a provider from: raises mid-build.
                with pytest.raises(ValueError):
                    build_internet(config)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


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

    def test_canonical_asn_identity_default(self, small_built):
        assert small_built.truth.canonical_asn(99999) == 99999

    def test_host_population_nonempty(self, small_built):
        hosts = small_built.truth.all_host_addresses()
        assert len(hosts) > 500
