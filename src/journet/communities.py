"""Divisive community detection by repeated removal of high-traffic edges.

Edge betweenness counts shortest paths fractionally (Brandes-style BFS
accumulation), the highest-scoring edge is removed, betweenness is
recomputed, and every time the graph falls apart a partition is
recorded together with its modularity against the original graph.  The
best partition is the modularity maximum.  Tie-breaking is fully
deterministic so repeated runs agree edge for edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graph import Graph, NodeRef, bfs, components

Edge = tuple[NodeRef, NodeRef]


def _betweenness_on_adj(adj) -> dict[tuple[int, int], float]:
    """Shortest-path edge betweenness over unordered node pairs.

    ``adj`` holds symmetric index rows (see Graph.adjacency); edges come
    back as (i, j) index pairs with i < j.  One BFS per source gives the
    visit order and distances; shortest-path counts sigma follow from
    them, and walking the order backwards pushes each pair's unit of
    flow down the shortest-path DAG, split proportionally to sigma.
    Summing over all sources counts every unordered pair twice, hence
    the final halving.  Sources and neighbours are visited in ascending
    order so the floating-point sums are reproducible.
    """
    betweenness = {(u, v): 0.0 for u, row in enumerate(adj) for v in row if u < v}
    for source in range(len(adj)):
        order, dist = bfs(adj, source)
        sigma = dict.fromkeys(order, 0)
        sigma[source] = 1
        for u in order:
            d = dist[u] + 1
            for v in adj[u]:
                if dist[v] == d:
                    sigma[v] += sigma[u]
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            d = dist[w] - 1
            for v in adj[w]:
                if dist[v] == d:
                    flow = sigma[v] / sigma[w] * (1.0 + delta[w])
                    betweenness[(v, w) if v < w else (w, v)] += flow
                    delta[v] += flow
    return {edge: value / 2.0 for edge, value in betweenness.items()}


def edge_betweenness(graph: Graph) -> dict[Edge, float]:
    """Betweenness per unordered edge; contributions per node pair sum to 1."""
    if graph.directed:
        raise ValueError("edge betweenness needs an undirected graph; symmetrize first")
    nodes = graph.nodes()
    scores = _betweenness_on_adj(graph.adjacency())
    return {(nodes[u], nodes[v]): value for (u, v), value in scores.items()}


def modularity(graph: Graph, partition: Mapping[NodeRef, int]) -> float:
    """Q = sum over communities of (internal link share - squared degree share).

    Unweighted: link multiplicities are ignored.  The partition must
    label exactly the graph's nodes and the graph must have at least one
    edge.  The sum is carried in exact rationals and rounded once at the
    end, so the result never depends on community iteration order.
    """
    if graph.directed:
        raise ValueError("modularity needs an undirected graph; symmetrize first")
    m = graph.link_count
    if m == 0:
        raise ValueError("modularity is undefined for a graph without edges")
    if set(partition) != set(graph.nodes()):
        raise ValueError("partition does not cover exactly the graph's node set")
    internal: dict[int, int] = {}
    degree: dict[int, int] = {}
    for u, v, _ in graph.links():
        if partition[u] == partition[v]:
            internal[partition[u]] = internal.get(partition[u], 0) + 1
    for node in graph.nodes():
        label = partition[node]
        degree[label] = degree.get(label, 0) + graph.degree(node)
    q = Fraction(0)
    for label in degree:
        q += Fraction(internal.get(label, 0), m) - Fraction(degree[label], 2 * m) ** 2
    return float(q)


def canonical_partition(components: list[list[NodeRef]]) -> dict[NodeRef, int]:
    """Dense labels 0..c-1; the community with the smallest node gets 0."""
    ordered = sorted(components, key=lambda c: min(c).sort_key)
    return {node: label for label, members in enumerate(ordered) for node in members}


@dataclass(frozen=True)
class PartitionRecord:
    """One dendrogram level: the split observed after removed_edges removals."""

    removed_edges: int
    community_count: int
    partition: dict[NodeRef, int]
    modularity: float


@dataclass
class CommunityResult:
    records: list[PartitionRecord]
    best_index: int

    @property
    def best(self) -> PartitionRecord:
        return self.records[self.best_index]


def girvan_newman(graph: Graph) -> CommunityResult:
    """Full divisive dendrogram with the modularity-best level marked.

    The starting partition (connected components of the input) is always
    recorded first; afterwards the maximum-betweenness edge is removed
    (ties broken toward the smallest (min endpoint, max endpoint) pair)
    and a new level is recorded whenever the component count grows.
    Modularity is always evaluated against the original graph.  Runs
    until no edges remain, so the last level is all singletons.  Best is
    the highest Q; equal Q prefers fewer communities, then the earlier
    recording.
    """
    if graph.directed:
        raise ValueError("community detection needs an undirected graph; symmetrize first")
    if graph.link_count == 0:
        raise ValueError("community detection needs at least one edge")

    nodes = graph.nodes()
    adj = [list(row) for row in graph.adjacency()]

    def record(removed, comps):
        partition = canonical_partition([[nodes[v] for v in comp] for comp in comps])
        return PartitionRecord(removed, len(comps), partition, modularity(graph, partition))

    records = [record(0, components(adj))]
    for removed in range(1, graph.link_count + 1):
        scores = _betweenness_on_adj(adj)
        u, v = min(scores, key=lambda edge: (-scores[edge], edge))
        adj[u].remove(v)
        adj[v].remove(u)
        comps = components(adj)
        if len(comps) > records[-1].community_count:
            records.append(record(removed, comps))

    # max() keeps the first of equal maxima: the earlier, coarser level
    return CommunityResult(records, max(range(len(records)), key=lambda i: records[i].modularity))


def community_of(result: CommunityResult, node: NodeRef) -> list[NodeRef]:
    """Sorted members of the node's community in the best partition."""
    partition = result.best.partition
    if node not in partition:
        raise ValueError(f"node {node} was not part of the analyzed graph")
    label = partition[node]
    return sorted(n for n, lab in partition.items() if lab == label)
