"""Section 7.2 (future work) — alias resolution and router-level graphs.

The paper ends where CAIDA's ITDK pipeline begins: feed the discovered
interface addresses into speedtrap-style alias resolution and collapse
the interface-level topology into a router-level graph.  This benchmark
runs the complete pipeline on a campaign's discoveries and grades it
against the simulator's ground truth:

* pairwise precision/recall of the resolved alias clusters;
* interface-graph vs router-graph sizes (the collapse factor);
* edge accuracy of the interface graph against true path adjacency.
"""

from repro.analysis import (
    build_traces,
    graph_summary,
    interface_graph,
    render_table,
    resolve_aliases,
    router_graph,
    score_against_truth,
    truth_clusters_for,
)
from repro.analysis.graph import edge_accuracy
from repro.netsim import Internet
from repro.prober import run_speedtrap


def run_pipeline(world, campaigns):
    # Interfaces discovered by the tum-z64 campaign from EU-NET.
    campaign = campaigns.get("EU-NET", "tum-z64")
    traces = build_traces(campaign.records)
    candidates = sorted(campaign.interfaces)

    internet = Internet(world)
    machine = run_speedtrap(internet, "EU-NET", candidates)
    clusters = resolve_aliases(machine.samples)
    truth = truth_clusters_for(candidates, world.truth.router_addresses)
    accuracy = score_against_truth(clusters, truth)

    interfaces = interface_graph(traces, registry=world.truth.registry)
    routers = router_graph(interfaces, clusters)

    # Ground-truth adjacency: consecutive hops of the compiled paths
    # toward every traced target, across all ECMP variants.
    vantage = internet.vantage("EU-NET")
    truth_adjacent = set()
    for target in traces:
        for variant in range(4):
            compiled = internet.path_for(vantage, target, variant)
            hops = [iface for _, iface, _ in compiled.hops]
            for a, b in zip(hops, hops[1:]):
                truth_adjacent.add((min(a, b), max(a, b)))
    accuracy_edges, checked = edge_accuracy(interfaces, truth_adjacent)
    return machine, clusters, accuracy, interfaces, routers, (accuracy_edges, checked)


def test_alias_resolution(world, campaigns, save_result, benchmark):
    machine, clusters, accuracy, interfaces, routers, edges = benchmark.pedantic(
        run_pipeline, args=(world, campaigns), rounds=1, iterations=1
    )
    interface_stats = graph_summary(interfaces)
    router_stats = graph_summary(routers)
    multi = [cluster for cluster in clusters if len(cluster) > 1]
    rows = [
        ["speedtrap probes", machine.sent],
        ["sampled addresses", len(machine.samples)],
        ["alias clusters (multi-interface)", len(multi)],
        ["pairwise precision", "%.3f" % accuracy.precision],
        ["pairwise recall", "%.3f" % accuracy.recall],
        ["interface graph nodes/edges", "%d / %d" % (interface_stats["nodes"], interface_stats["edges"])],
        ["router graph nodes/edges", "%d / %d" % (router_stats["nodes"], router_stats["edges"])],
        ["interface edge accuracy", "%.3f over %d" % edges],
    ]
    save_result(
        "alias_resolution",
        render_table(
            ["Metric", "Value"],
            rows,
            title="Section 7.2: alias resolution -> router-level topology (tum-z64, EU-NET)",
        ),
    )

    # The resolution must be near-perfect against ground truth.
    assert accuracy.precision > 0.95
    assert accuracy.recall > 0.7
    # Aliases exist and collapse the graph.
    assert multi
    assert router_stats["nodes"] < interface_stats["nodes"]
    # Interface-level edges reflect true forwarding adjacency.
    assert edges[0] > 0.95
