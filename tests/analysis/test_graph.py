"""Tests for interface- and router-level graph construction."""

import networkx as nx
import pytest

from repro.addrs import parse
from repro.analysis.graph import (
    edge_accuracy,
    graph_summary,
    interface_graph,
    router_graph,
)
from repro.analysis.traces import Trace
from repro.packet import icmpv6
from repro.prober.records import ProbeRecord

A = parse("2001:db8::a")
B = parse("2001:db8::b")
C = parse("2001:db8::c")
D = parse("2001:db8::d")


def trace_of(target, hops):
    trace = Trace(target)
    for ttl, hop in enumerate(hops, start=1):
        if hop is not None:
            trace.add(
                ProbeRecord(target, ttl, hop, icmpv6.TYPE_TIME_EXCEEDED, 0, "time exceeded", 1, 1)
            )
    return trace


class TestInterfaceGraph:
    def test_consecutive_hops_linked(self):
        traces = {1: trace_of(1, [A, B, C])}
        graph = interface_graph(traces)
        assert graph.has_edge(A, B)
        assert graph.has_edge(B, C)
        assert not graph.has_edge(A, C)

    def test_gap_breaks_link_by_default(self):
        traces = {1: trace_of(1, [A, None, C])}
        graph = interface_graph(traces)
        assert not graph.has_edge(A, C)
        assert A in graph.nodes and C in graph.nodes

    def test_gap_bridged_when_allowed(self):
        traces = {1: trace_of(1, [A, None, C])}
        graph = interface_graph(traces, allow_gaps=True)
        assert graph.has_edge(A, C)
        assert graph[A][C]["inferred"]

    def test_shared_hops_merge(self):
        traces = {
            1: trace_of(1, [A, B, C]),
            2: trace_of(2, [A, B, D]),
        }
        graph = interface_graph(traces)
        assert graph.degree[B] == 3  # A, C, D

    def test_asn_annotation(self):
        from repro.addrs.prefix import Prefix
        from repro.addrs.trie import PrefixTrie

        registry = PrefixTrie()
        registry.insert(Prefix.parse("2001:db8::/32"), 64500)
        graph = interface_graph({1: trace_of(1, [A, B])}, registry=registry)
        assert graph.nodes[A]["asn"] == 64500


class TestRouterGraph:
    def test_aliases_collapse(self):
        interfaces = interface_graph({1: trace_of(1, [A, B, C])})
        routers = router_graph(interfaces, [{B, C}])
        assert routers.number_of_nodes() == 2
        merged = min(B, C)
        assert routers.has_edge(A, merged)
        assert routers.nodes[merged]["interfaces"] == {B, C}

    def test_intra_router_edge_dropped(self):
        interfaces = nx.Graph()
        interfaces.add_edge(B, C)
        routers = router_graph(interfaces, [{B, C}])
        assert routers.number_of_edges() == 0

    def test_parallel_links_weighted(self):
        interfaces = nx.Graph()
        interfaces.add_edge(A, B)
        interfaces.add_edge(A, C)
        routers = router_graph(interfaces, [{B, C}])
        merged = min(B, C)
        assert routers[A][merged]["weight"] == 2

    def test_singletons_pass_through(self):
        interfaces = interface_graph({1: trace_of(1, [A, B])})
        routers = router_graph(interfaces, [])
        assert set(routers.nodes) == {A, B}


class TestSummaryAccuracy:
    def test_summary(self):
        graph = interface_graph({1: trace_of(1, [A, B, C])})
        summary = graph_summary(graph)
        assert summary["nodes"] == 3
        assert summary["edges"] == 2
        assert summary["components"] == 1
        assert summary["max_degree"] == 2

    def test_summary_empty(self):
        assert graph_summary(nx.Graph())["nodes"] == 0

    def test_summary_counts_as_networkx_does(self):
        """A self-loop is two degrees and one edge, as networkx counts."""
        graph = nx.Graph([(A, B), (B, C), (C, C), (D, D)])
        summary = graph_summary(graph)
        degrees = [degree for _, degree in graph.degree()]
        assert summary["edges"] == graph.number_of_edges() == 4
        assert summary["max_degree"] == max(degrees) == 3
        assert summary["mean_degree"] == sum(degrees) / len(degrees)
        assert summary["components"] == 2

    def test_summary_leaves_no_reference_cycle(self):
        import gc
        import weakref

        graph = interface_graph({1: trace_of(1, [A, B, C])})
        ref = weakref.ref(graph)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            graph_summary(graph)
            del graph
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_edge_accuracy(self):
        graph = interface_graph({1: trace_of(1, [A, B, C])})
        truth = {(min(A, B), max(A, B))}
        fraction, checked = edge_accuracy(graph, truth)
        assert checked == 2
        assert fraction == 0.5

    def test_edge_accuracy_skips_inferred(self):
        graph = interface_graph({1: trace_of(1, [A, None, C])}, allow_gaps=True)
        fraction, checked = edge_accuracy(graph, set())
        assert checked == 0
        assert fraction == 1.0


class TestMeasuredRouterGraph:
    """A router graph from a real campaign and Speedtrap's clusters: every
    interface the traces saw lands on exactly one router."""

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.analysis import resolve_aliases
        from repro.analysis.traces import build_traces
        from repro.netsim import Internet, InternetConfig, build_internet
        from repro.prober import run_speedtrap, run_yarrp6

        built = build_internet(InternetConfig(n_edge=15, cpe_customers_per_isp=60, seed=3))
        net = Internet(built)
        targets = [subnet.prefix.base | 1 for subnet in list(built.truth.subnets.values())[:60]]
        campaign = run_yarrp6(net, "US-EDU-1", targets, pps=500, max_ttl=16)
        net.reset_dynamics()
        machine = run_speedtrap(net, "US-EDU-1", sorted(campaign.interfaces))
        clusters = resolve_aliases(machine.samples)
        interfaces = interface_graph(build_traces(campaign.records))
        return built, clusters, interfaces, router_graph(interfaces, clusters)

    def test_every_interface_lands_on_one_router(self, measured):
        _, _, interfaces, routers = measured
        owned = [data["interfaces"] for _, data in routers.nodes(data=True)]
        assert sum(len(members) for members in owned) == interfaces.number_of_nodes()
        assert set().union(*owned) == set(interfaces.nodes)

    def test_merged_routers_are_real_routers(self, measured):
        built, _, _, routers = measured
        merged = [
            data["interfaces"] for _, data in routers.nodes(data=True) if len(data["interfaces"]) > 1
        ]
        assert merged
        owner = built.truth.router_addresses
        for members in merged:
            assert len({owner[address].router_id for address in members}) == 1

    def test_links_only_shrink(self, measured):
        _, _, interfaces, routers = measured
        assert 0 < routers.number_of_edges() <= interfaces.number_of_edges()
        assert routers.number_of_nodes() < interfaces.number_of_nodes()
        assert nx.number_of_selfloops(routers) == 0
