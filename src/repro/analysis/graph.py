"""Topology graph construction: interface-level and router-level views.

The paper publishes interface-level topology and names router-level
graphs (via alias resolution) as the follow-on (Section 7.2) — the
pipeline CAIDA's ITDK runs.  This module builds both:

* the **interface graph**: nodes are responding interface addresses,
  edges join interfaces seen at consecutive responsive hops of a trace
  (an "IP link" in the measurement literature);
* the **router graph**: interface nodes collapsed through alias
  clusters, de-duplicating parallel IP links between the same routers.

Graphs are `networkx` objects, annotated with AS attribution where the
registry resolves it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..addrs.trie import PrefixTrie
from .traces import Trace

if TYPE_CHECKING:
    # Annotations only: a function that builds or measures a graph
    # imports networkx itself, so ``import repro.analysis`` does not.
    import networkx as nx


def interface_graph(
    traces: Mapping[int, Trace],
    registry: Optional[PrefixTrie] = None,
    allow_gaps: bool = False,
) -> nx.Graph:
    """Build the interface-level graph from reassembled traces.

    Edges join addresses at hop distances (h, h+1) of one trace; with
    ``allow_gaps`` a single missing hop is bridged (h, h+2) — a common,
    clearly-marked inference in IP topology work.
    """
    import networkx as nx

    graph = nx.Graph()
    for trace in traces.values():
        path = trace.path
        for index, hop in enumerate(path):
            if hop is None:
                continue
            graph.add_node(hop)
            nxt = path[index + 1] if index + 1 < len(path) else None
            if nxt is not None:
                graph.add_edge(hop, nxt, inferred=False)
            elif (
                allow_gaps
                and index + 2 < len(path)
                and path[index + 2] is not None
            ):
                graph.add_edge(hop, path[index + 2], inferred=True)
    if registry is not None:
        for node in graph.nodes:
            match = registry.longest_match(node)
            graph.nodes[node]["asn"] = match[1] if match else None
    return graph


def router_graph(
    interfaces: nx.Graph, alias_clusters: Iterable[Iterable[int]]
) -> nx.Graph:
    """Collapse an interface graph through alias clusters.

    Every interface maps to its cluster representative (singletons map
    to themselves); parallel interface links between two routers merge
    into one weighted edge.
    """
    import networkx as nx

    representative: Dict[int, int] = {}
    for cluster in alias_clusters:
        members = sorted(cluster)
        for member in members:
            representative[member] = members[0]

    graph = nx.Graph()
    for node in interfaces.nodes:
        router = representative.get(node, node)
        if not graph.has_node(router):
            graph.add_node(router, interfaces=set())
        graph.nodes[router]["interfaces"].add(node)
        if "asn" in interfaces.nodes[node]:
            graph.nodes[router].setdefault("asn", interfaces.nodes[node]["asn"])
    for a, b, data in interfaces.edges(data=True):
        ra, rb = representative.get(a, a), representative.get(b, b)
        if ra == rb:
            continue  # intra-router "link": an alias artifact
        if graph.has_edge(ra, rb):
            graph[ra][rb]["weight"] += 1
        else:
            graph.add_edge(ra, rb, weight=1, inferred=data.get("inferred", False))
    return graph


def graph_summary(graph: nx.Graph) -> Dict[str, float]:
    """Headline statistics for reporting."""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return {"nodes": 0, "edges": 0, "components": 0, "mean_degree": 0.0}
    # Read off the adjacency, as ``graph.degree()`` counts (a self-loop
    # twice): networkx caches its degree view on the graph, and the view
    # holds the graph, so calling it leaves the whole graph a reference
    # cycle that only the cyclic collector frees.
    degrees = [len(nbrs) + (node in nbrs) for node, nbrs in graph.adj.items()]
    return {
        "nodes": graph.number_of_nodes(),
        "edges": sum(degrees) // 2,
        "components": nx.number_connected_components(graph),
        "mean_degree": sum(degrees) / len(degrees),
        "max_degree": max(degrees),
    }


def edge_accuracy(
    graph: nx.Graph, truth_adjacent: Set[Tuple[int, int]]
) -> Tuple[float, int]:
    """Fraction of non-inferred graph edges present in ground-truth
    adjacency (and the count checked).  ``truth_adjacent`` holds
    canonically ordered node pairs."""
    checked = 0
    correct = 0
    for a, b, data in graph.edges(data=True):
        if data.get("inferred"):
            continue
        checked += 1
        if (min(a, b), max(a, b)) in truth_adjacent:
            correct += 1
    return (correct / checked if checked else 1.0), checked
