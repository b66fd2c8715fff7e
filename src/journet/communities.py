"""Divisive community detection by repeated removal of high-traffic edges.

Edge betweenness counts shortest paths fractionally: Brandes-style BFS
accumulation over each source's recorded shortest-path predecessors, on
a locally numbered component.  The highest-scoring edge is removed and
betweenness is recomputed only in the kept component that lost it.  Each
time the graph falls apart, a partition is recorded with its modularity
against the original graph; the best partition is the modularity maximum.
Tie-breaking is fully deterministic so repeated runs agree edge for edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import Graph, NodeRef, bfs, components

Edge = tuple[NodeRef, NodeRef]


def _betweenness_on_adj(adj, sources=None) -> tuple[list[tuple[int, int]], list[float]]:
    """Twice the shortest-path edge betweenness, summed over ``sources``.

    ``adj`` holds symmetric rows that iterate ascending neighbour
    indices: Graph.rows()'s dicts or girvan_newman's list copies of
    them.  ``sources`` is ascending, all nodes by default, and must be
    whole components; they are numbered 0..p-1 in that order.  Each edge
    (i, j), i < j, gets a slot in the returned edge and score lists.  Per
    source one sweep sets hop distances, path counts sigma and each node's
    shortest-path predecessors; walking its visit order backwards splits
    each pair's unit of flow over those predecessors in proportion to
    sigma.  Each delta takes its additions in reverse visit order and each
    score one per source, sources ascending, so float sums are
    reproducible and a component's scores equal a whole-graph sweep's.
    """
    if sources is None:
        sources = range(len(adj))
    local = {u: i for i, u in enumerate(sources)}
    slot: dict[tuple[int, int], int] = {}  # edge -> its index in edges and scores
    row_slots = [{local[v]: slot.setdefault((u, v) if u < v else (v, u), len(slot)) for v in adj[u]}
                 for u in sources]  # local neighbour -> its edge's slot
    nbrs = [list(row) for row in row_slots]  # local neighbours, ascending
    edges = list(slot)
    scores = [0.0] * len(edges)
    p = len(nbrs)
    for source in range(p):
        dist, sigma, delta, preds = [-1] * p, [0] * p, [0.0] * p, [()] * p
        dist[source], sigma[source] = 0, 1
        order = [source]
        for u in order:  # order grows while it is walked: that is the queue
            d, s = dist[u] + 1, sigma[u]
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v], sigma[v], preds[v] = d, s, [u]
                    order.append(v)
                elif dist[v] == d:
                    sigma[v] += s
                    preds[v].append(u)
        for w in reversed(order):
            s, push, slots = sigma[w], 1.0 + delta[w], row_slots[w]
            for v in preds[w]:
                flow = sigma[v] / s * push
                scores[slots[v]] += flow
                delta[v] += flow
    return edges, scores


def edge_betweenness(graph: Graph) -> dict[Edge, float]:
    """Betweenness per unordered edge; contributions per node pair sum to 1."""
    if graph.directed:
        raise ValueError("edge betweenness needs an undirected graph; read a directed one as "
                         'Graph(False, graph.nodes(), graph.rows("both"))')
    nodes = graph.nodes()
    edges, scores = _betweenness_on_adj(tuple(graph.rows()))
    return {(nodes[u], nodes[v]): value / 2.0 for (u, v), value in zip(edges, scores)}


def modularity(graph: Graph, partition: Mapping[NodeRef, int]) -> float:
    """Q = sum over communities of (internal link share - squared degree share).

    Unweighted: link multiplicities are ignored.  The partition must
    label exactly the graph's nodes and the graph must have at least one
    edge.  With L_c internal links and degree sum d_c per community,
    Q = sum(4m L_c - d_c^2) / (4m^2): the sum is carried in integers and
    divided once, so the result is correctly rounded and never depends
    on community iteration order.
    """
    if graph.directed:
        raise ValueError("modularity needs an undirected graph; read a directed one as "
                         'Graph(False, graph.nodes(), graph.rows("both"))')
    m = graph.link_count
    if m == 0:
        raise ValueError("modularity is undefined for a graph without edges")
    nodes = graph.nodes()
    if set(partition) != set(nodes):
        raise ValueError("partition does not cover exactly the graph's node set")
    labels = [partition[node] for node in nodes]
    ends: dict[int, int] = {}  # label -> link ends inside the community: 2 L_c
    degree: dict[int, int] = {}
    for label, row in zip(labels, graph.rows()):
        ends[label] = ends.get(label, 0) + sum(labels[j] == label for j in row)
        degree[label] = degree.get(label, 0) + len(row)
    return sum(2 * m * ends[c] - d * d for c, d in degree.items()) / (4 * m * m)


def canonical_partition(components: list[list[NodeRef]]) -> dict[NodeRef, int]:
    """Dense labels 0..c-1; the community with the smallest node gets 0."""
    ordered = sorted(components, key=min)
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
    The components are found once and kept as ascending member lists;
    only the one that lost the removed edge, or the two it split into, is
    swept again, and the others keep their top edge.  Modularity is always
    evaluated against the graph's ``rows("both")`` as given at the start.
    Runs until no edges remain, so the last level is all singletons.
    Best is the highest Q; equal Q prefers fewer communities, then the
    earlier recording.  A directed graph is read both ways, as its
    ``rows("both")``: opposite arcs make one edge, counted once.
    """
    if graph.link_count == 0:
        raise ValueError("community detection needs at least one edge")

    nodes = graph.nodes()
    graph = Graph(False, nodes, graph.rows("both"))  # its undirected rows, for this run alone
    adj = [list(row) for row in graph.rows()]
    held = graph.hops()[1]  # the hop form of adj too: node i holds row i alone
    tops = {}  # least node of a component -> (-score, edge) of its top edge

    def sweep(piece):
        edges, scores = _betweenness_on_adj(adj, piece)
        if edges:
            tops[piece[0]] = min(zip([-x for x in scores], edges))

    def record(removed, comps):
        partition = canonical_partition([[nodes[v] for v in comp] for comp in comps])
        return PartitionRecord(removed, len(comps), partition, modularity(graph, partition))

    comps = components(adj, held)
    pieces = {comp[0]: comp for comp in comps}  # least node -> ascending members
    records = [record(0, comps)]
    for comp in comps:
        sweep(comp)
    for removed in range(1, graph.link_count + 1):
        key = min(tops, key=tops.get)
        u, v = tops.pop(key)[1]
        adj[u].remove(v)
        adj[v].remove(u)
        side, dist = bfs(adj, held, u)
        if v in dist:
            sweep(pieces[key])
        else:  # the piece splits into u's side and the rest, both ascending
            rest = [x for x in pieces.pop(key) if x not in dist]
            for piece in sorted(side), rest:
                pieces[piece[0]] = piece
                sweep(piece)
            records.append(record(removed, sorted(pieces.values())))

    # max() keeps the first of equal maxima: the earlier, coarser level
    return CommunityResult(records, max(range(len(records)), key=lambda i: records[i].modularity))


def community_of(result: CommunityResult, node: NodeRef) -> list[NodeRef]:
    """Sorted members of the node's community in the best partition."""
    partition = result.best.partition
    if node not in partition:
        raise ValueError(f"node {node} was not part of the analyzed graph")
    label = partition[node]
    return sorted(n for n, lab in partition.items() if lab == label)
