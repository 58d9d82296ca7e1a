"""AS-level topology views of trace results.

The paper positions its interface-level work against AS-level studies
(Section 2): Dhamdhere et al. traced the AS-level IPv6 topology's
evolution and found a single transit AS (Hurricane Electric) on 20–95%
of observed AS paths; Czyz et al. k-core analysis showed the IPv6 AS
graph's core to be small and richly connected.  This module derives the
same views from our traces:

* per-trace AS paths (hop addresses attributed via the registry);
* the AS-level graph and its k-core decomposition;
* transit dominance — the fraction of AS paths each ASN appears on.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from .subnets import AsnResolver
from .traces import Trace

if TYPE_CHECKING:
    # Annotations only: a function that builds or measures a graph
    # imports networkx itself, so ``import repro.analysis`` does not.
    import networkx as nx


def as_path(trace: Trace, resolver: AsnResolver) -> List[int]:
    """The trace's AS-level path: consecutive duplicate ASNs collapsed,
    unattributable hops skipped."""
    path: List[int] = []
    for hop in trace.path:
        if hop is None:
            continue
        asn = resolver.asn_of(hop)
        if asn is None:
            continue
        if not path or path[-1] != asn:
            path.append(asn)
    return path


def as_level_graph(
    traces: Mapping[int, Trace], resolver: AsnResolver
) -> nx.Graph:
    """AS adjacency graph over all traces' AS paths."""
    import networkx as nx

    graph = nx.Graph()
    for trace in traces.values():
        path = as_path(trace, resolver)
        for asn in path:
            graph.add_node(asn)
        for a, b in zip(path, path[1:]):
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
            else:
                graph.add_edge(a, b, weight=1)
    return graph


def k_core_summary(graph: nx.Graph) -> Dict[str, float]:
    """Czyz-style k-core reading: the innermost core's k and size, plus
    how concentrated connectivity is (core share of all edges)."""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return {"max_k": 0, "core_size": 0, "core_edge_share": 0.0}
    cores = nx.core_number(graph)
    max_k = max(cores.values())
    core_nodes = {node for node, k in cores.items() if k == max_k}
    core_edges = sum(
        1 for a, b in graph.edges if a in core_nodes and b in core_nodes
    )
    return {
        "max_k": max_k,
        "core_size": len(core_nodes),
        "core_edge_share": core_edges / graph.number_of_edges()
        if graph.number_of_edges()
        else 0.0,
    }


def transit_dominance(
    traces: Mapping[int, Trace], resolver: AsnResolver
) -> List[Tuple[int, float]]:
    """Per ASN: the fraction of AS paths it appears on (excluding the
    path's own terminal AS), sorted descending — the Hurricane Electric
    statistic."""
    appearances: Counter = Counter()
    total = 0
    for trace in traces.values():
        path = as_path(trace, resolver)
        if len(path) < 2:
            continue
        total += 1
        # Sorted so equal-count ASes rank deterministically in
        # most_common() (Counter breaks ties by insertion order).
        for asn in sorted(set(path[:-1])):
            appearances[asn] += 1
    if not total:
        return []
    ranked = [
        (asn, count / total) for asn, count in appearances.most_common()
    ]
    return ranked


def path_asn_lengths(
    traces: Mapping[int, Trace], resolver: AsnResolver
) -> List[int]:
    """AS-path length per trace (for distribution reporting)."""
    return [
        len(as_path(trace, resolver))
        for trace in traces.values()
        if trace.hops
    ]
