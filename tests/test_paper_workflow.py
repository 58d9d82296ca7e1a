"""The complete paper workflow, end to end, on a small world.

One integration test per pipeline stage, sharing a module-scoped world
and campaign: seeds → targets → campaign → traces → characterization →
subnet inference → alias resolution → persistence.  Asserts the
cross-module consistency properties no unit test can see.
"""

import io

import pytest

from repro.analysis import (
    AsnResolver,
    build_traces,
    discover_by_path_div,
    eui64_share,
    interface_graph,
    resolve_aliases,
    router_graph,
    score_against_truth,
    truth_clusters_for,
    validate_candidates,
)
from repro.hitlist import build_suite
from repro.netsim import Internet, InternetConfig, build_internet
from repro.prober import run_speedtrap, run_yarrp6
from repro.prober.output import loads, write_campaign
from repro.seeds import build_all_seeds


@pytest.fixture(scope="module")
def world():
    return build_internet(
        InternetConfig(n_edge=50, cpe_customers_per_isp=400, seed=71)
    )


@pytest.fixture(scope="module")
def suite(world):
    seeds = build_all_seeds(
        world, random_count=1500, sixgen_budget=4000, cdn_k32=2, cdn_k256=16
    )
    return build_suite(
        {name: seed_list.items for name, seed_list in seeds.items()}, levels=(64,)
    )


@pytest.fixture(scope="module")
def campaign(world, suite):
    internet = Internet(world)
    targets = sorted(
        set(suite["tum-z64"].addresses) | set(suite["cdn-k32-z64"].addresses)
    )
    return run_yarrp6(internet, "EU-NET", targets, pps=1000, max_ttl=16, fill=True)


class TestCampaignConsistency:
    def test_every_interface_is_a_real_router_interface(self, world, campaign):
        for interface in campaign.interfaces:
            assert interface in world.truth.router_addresses

    def test_every_record_targets_a_probed_address(self, campaign, suite):
        """Decoded targets match what we probed — except records whose
        quotation a middlebox rewrote, which the address checksum flags
        as target_modified (that's the detector's whole job)."""
        probed = set(suite["tum-z64"].addresses) | set(suite["cdn-k32-z64"].addresses)
        mismatches = 0
        for record in campaign.records:
            if record.target not in probed:
                assert record.target_modified, hex(record.target)
                mismatches += 1
        assert mismatches == sum(1 for r in campaign.records if r.target_modified)

    def test_trace_hops_subset_of_interfaces_plus_terminals(self, campaign):
        traces = build_traces(campaign.records)
        hop_union = set()
        for trace in traces.values():
            hop_union.update(hop for hop in trace.path if hop is not None)
        assert hop_union <= campaign.interfaces

    def test_eui64_comes_from_cpe(self, world, campaign):
        from repro.netsim.topology import RouterRole

        for interface in campaign.interfaces:
            router = world.truth.router_addresses[interface]
            if router.role is RouterRole.CPE:
                continue
            # Non-CPE routers never carry EUI-64 interfaces.
            from repro.addrs import IIDClass, classify_address

            assert classify_address(interface) is not IIDClass.EUI64


class TestSubnetStage:
    def test_candidates_within_probed_space(self, world, campaign):
        resolver = AsnResolver(world.truth.registry, world.truth.equivalent_asns)
        traces = build_traces(campaign.records)
        candidates = discover_by_path_div(traces, resolver)
        for prefix in candidates.candidate_prefixes:
            # Each candidate covers at least one probed target.
            assert any(prefix.contains(target) for target in traces)

    def test_ia_subnets_are_lans_or_router_links(self, world, campaign):
        """The IA hack pins customer LANs exactly; its known ambiguity is
        router point-to-point /64s, whose ::1 genuinely answers from
        inside the probed /64.  Nothing else may be flagged."""
        resolver = AsnResolver(world.truth.registry, world.truth.equivalent_asns)
        traces = build_traces(campaign.records)
        candidates = discover_by_path_div(traces, resolver)
        assert candidates.ia_subnets
        lan_hits = 0
        for prefix in candidates.ia_subnets:
            if prefix.base in world.truth.subnets:
                lan_hits += 1
            else:
                assert (prefix.base | 1) in world.truth.router_addresses, str(prefix)
        assert lan_hits > 0

    def test_validation_coheres(self, world, campaign):
        resolver = AsnResolver(world.truth.registry, world.truth.equivalent_asns)
        traces = build_traces(campaign.records)
        candidates = discover_by_path_div(traces, resolver)
        truth = []
        for asys in world.truth.ases.values():
            truth.extend(asys.plan.distribution)
            truth.extend(asys.plan.allocations)
        report = validate_candidates(candidates, truth, traces.keys())
        assert report.candidates == len(candidates.candidate_prefixes)
        assert report.exact_matches + report.more_specific <= report.candidates


class TestAliasStage:
    def test_resolution_then_collapse(self, world, campaign):
        internet = Internet(world)
        machine = run_speedtrap(internet, "EU-NET", sorted(campaign.interfaces))
        clusters = resolve_aliases(machine.samples)
        truth = truth_clusters_for(campaign.interfaces, world.truth.router_addresses)
        accuracy = score_against_truth(clusters, truth)
        assert accuracy.precision > 0.95

        traces = build_traces(campaign.records)
        interfaces = interface_graph(traces)
        routers = router_graph(interfaces, clusters)
        assert routers.number_of_nodes() <= interfaces.number_of_nodes()
        # Interfaces survive the collapse as node attributes.
        collapsed = set()
        for _, data in routers.nodes(data=True):
            collapsed |= data["interfaces"]
        assert collapsed == set(interfaces.nodes)


class TestPersistenceStage:
    def test_round_trip_preserves_analysis(self, campaign):
        buffer = io.StringIO()
        write_campaign(buffer, campaign)
        loaded = loads(buffer.getvalue())
        assert loaded.interfaces == campaign.interfaces
        original_traces = build_traces(campaign.records)
        loaded_traces = build_traces(loaded.records)
        assert set(loaded_traces) == set(original_traces)
        for target, trace in original_traces.items():
            assert loaded_traces[target].hops == trace.hops
