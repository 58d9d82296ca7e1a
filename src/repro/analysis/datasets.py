"""Topology dataset export/import in ITDK-style node/link files.

The paper releases its discovered topology; CAIDA's Internet Topology
Data Kit (ITDK) — which the paper's alias-resolution future work feeds —
publishes router-level graphs as ``.nodes`` / ``.links`` text files:

* ``node N<i>:  <addr> <addr> ...`` — one router, its interface aliases;
* ``link L<j>:  N<a>:<addr> N<b>:<addr> ...`` — one inter-router link,
  with the interface each router contributes where known.

This module writes and reads that format for our router-level graphs so
results can be diffed, shared, and re-loaded without rerunning
campaigns.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Set, TextIO, Tuple

from ..addrs import address

if TYPE_CHECKING:
    # Annotations only: a function that builds or measures a graph
    # imports networkx itself, so ``import repro.analysis`` does not.
    import networkx as nx


class DatasetError(ValueError):
    """Raised for unparseable dataset files."""


def write_nodes(sink: TextIO, clusters: Iterable[Iterable[int]]) -> Dict[int, str]:
    """Write alias clusters as node records.

    Returns the interface → node-id mapping used (deterministic: clusters
    ordered by smallest member).
    """
    mapping: Dict[int, str] = {}
    ordered = sorted((sorted(cluster) for cluster in clusters), key=lambda c: c[0])
    sink.write("# repro router-level nodes (ITDK-style)\n")
    for index, members in enumerate(ordered, start=1):
        node_id = "N%d" % index
        for member in members:
            mapping[member] = node_id
        sink.write(
            "node %s:  %s\n"
            % (node_id, " ".join(address.format_address(member) for member in members))
        )
    return mapping


def write_links(
    sink: TextIO, graph: nx.Graph, node_ids: Mapping[int, str]
) -> int:
    """Write a router graph's edges as link records; returns links written.

    ``graph`` nodes are cluster representatives whose ``interfaces``
    attribute lists member addresses; ``node_ids`` maps any interface to
    its node id.
    """
    sink.write("# repro router-level links (ITDK-style)\n")
    count = 0
    for index, (a, b) in enumerate(sorted(graph.edges), start=1):
        id_a = node_ids.get(a, "N?")
        id_b = node_ids.get(b, "N?")
        sink.write(
            "link L%d:  %s:%s %s:%s\n"
            % (
                index,
                id_a,
                address.format_address(a),
                id_b,
                address.format_address(b),
            )
        )
        count += 1
    return count


def read_nodes(source: TextIO) -> Dict[str, List[int]]:
    """Parse a .nodes stream into node-id → interface list."""
    nodes: Dict[str, List[int]] = {}
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("node "):
            raise DatasetError("unexpected line %r" % line)
        head, _, rest = line[5:].partition(":")
        node_id = head.strip()
        members = [address.parse(text) for text in rest.split()]
        if not members:
            raise DatasetError("empty node %r" % node_id)
        nodes[node_id] = members
    return nodes


def read_links(source: TextIO) -> List[Tuple[str, str]]:
    """Parse a .links stream into (node-id, node-id) pairs."""
    links: List[Tuple[str, str]] = []
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("link "):
            raise DatasetError("unexpected line %r" % line)
        _, _, rest = line.partition(":")
        endpoints = rest.split()
        if len(endpoints) < 2:
            raise DatasetError("link needs two endpoints: %r" % line)
        ids = [endpoint.split(":", 1)[0] for endpoint in endpoints]
        links.append((ids[0], ids[1]))
    return links


def export_router_level(
    clusters: Iterable[Iterable[int]], graph: nx.Graph
) -> Tuple[str, str]:
    """Render (.nodes text, .links text) for a resolved topology.

    Graph nodes not covered by any cluster (interfaces alias resolution
    never sampled) are exported as singleton nodes, so every link's
    endpoints resolve.
    """
    cluster_list = [sorted(cluster) for cluster in clusters]
    covered = {member for cluster in cluster_list for member in cluster}
    for node in graph.nodes:
        if node not in covered:
            cluster_list.append([node])
    nodes_buffer = io.StringIO()
    mapping = write_nodes(nodes_buffer, cluster_list)
    links_buffer = io.StringIO()
    write_links(links_buffer, graph, mapping)
    return nodes_buffer.getvalue(), links_buffer.getvalue()


def load_router_level(nodes_text: str, links_text: str) -> nx.Graph:
    """Reconstruct a router-level graph from dataset text."""
    import networkx as nx

    nodes = read_nodes(io.StringIO(nodes_text))
    links = read_links(io.StringIO(links_text))
    graph = nx.Graph()
    for node_id, members in nodes.items():
        graph.add_node(node_id, interfaces=set(members))
    for a, b in links:
        for node_id in (a, b):
            if node_id not in graph.nodes:
                raise DatasetError("link references unknown node %r" % node_id)
        graph.add_edge(a, b)
    return graph
