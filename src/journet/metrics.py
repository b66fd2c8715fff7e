"""Standard network statistics and their evolution over time slices.

Degrees, local clustering, BFS shortest paths and connected components,
bundled into one report per graph.  All path work is unweighted hop
counting; directed graphs are symmetrized for clustering and paths.
Mean shortest path and diameter are taken over the largest component,
with the component count and giant size reported alongside so nothing
disconnected is hidden.  An evolution series computes only the metric
it was asked for on each snapshot, never the full report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, TimeIndex, snapshot
from .graph import Graph, NodeRef, bfs, components
from .layers import Layer, build_layer


@dataclass
class DegreeStats:
    mean_degree: float
    max_degree: int
    distribution: dict[int, int]
    mean_in_degree: float | None = None
    mean_out_degree: float | None = None


@dataclass
class ClusteringStats:
    per_node: dict[NodeRef, float]
    mean: float
    max: float
    # raw triangle counts per node, so global transitivity stays derivable
    triangles: dict[NodeRef, int]


@dataclass
class PathStats:
    mean_shortest_path: float
    diameter: int
    component_count: int
    giant_component_size: int


@dataclass
class MetricsReport:
    node_count: int
    link_count: int
    mean_degree: float
    max_degree: int
    mean_clustering: float
    max_clustering: float
    mean_shortest_path: float
    diameter: int
    component_count: int
    giant_component_size: int


def degree_stats(graph: Graph) -> DegreeStats:
    """Mean and maximum degree plus the degree -> node count distribution.

    Directed graphs use total degree (in plus out); their separate in/out
    means are reported as extras.
    """
    nodes = graph.nodes()
    if not nodes:
        return DegreeStats(0.0, 0, {})
    degrees = [graph.degree(n) for n in nodes]
    dist = dict(sorted(Counter(degrees).items()))
    stats = DegreeStats(sum(degrees) / len(nodes), max(degrees), dist)
    if graph.directed:
        stats.mean_out_degree = sum(map(len, graph.adjacency("out"))) / len(nodes)
        stats.mean_in_degree = sum(map(len, graph.adjacency("in"))) / len(nodes)
    return stats


def clustering(graph: Graph) -> ClusteringStats:
    """Local clustering coefficient per node, with mean and maximum.

    C(v) = 2 T(v) / (k (k - 1)) where T(v) counts links among v's
    neighbours; nodes of degree < 2 get C = 0 and stay in the mean.
    """
    g = graph.symmetrized()
    nodes = g.nodes()
    linked = [row.keys() for row in g.adjacency()]
    per_node: dict[NodeRef, float] = {}
    triangles: dict[NodeRef, int] = {}
    for v, nbrs in enumerate(linked):
        k = len(nbrs)
        # each link among the neighbours is seen from both of its ends
        count = sum(len(linked[u] & nbrs) for u in nbrs) // 2
        triangles[nodes[v]] = count
        per_node[nodes[v]] = 2.0 * count / (k * (k - 1)) if k >= 2 else 0.0
    if not per_node:
        return ClusteringStats({}, 0.0, 0.0, {})
    values = list(per_node.values())
    return ClusteringStats(per_node, sum(values) / len(values), max(values), triangles)


def bfs_distances(graph: Graph, source: NodeRef) -> dict[NodeRef, int]:
    """Hop distances from source to every reachable node (direction ignored)."""
    nodes = graph.nodes()
    _, dist = bfs(graph.adjacency("both"), graph.index(source))
    return {nodes[v]: d for v, d in dist.items()}


def connected_components(graph: Graph) -> list[list[NodeRef]]:
    """Components as sorted node lists, ordered by their smallest node."""
    nodes = graph.nodes()
    return [[nodes[v] for v in comp] for comp in components(graph.adjacency("both"))]


def path_stats(graph: Graph) -> PathStats:
    """Mean shortest path and diameter over the largest component.

    A giant component of one node (or an empty graph) scores zero for
    both.  Ties for largest go to the component holding the smallest
    node, keeping results deterministic.
    """
    adj = graph.adjacency("both")
    comps = components(adj)
    if not comps:
        return PathStats(0.0, 0, 0, 0)
    giant = max(comps, key=len)
    if len(giant) < 2:
        return PathStats(0.0, 0, len(comps), len(giant))
    total = 0
    diameter = 0
    for source in giant:
        _, dist = bfs(adj, source)
        total += sum(dist.values())
        diameter = max(diameter, max(dist.values()))
    pairs = len(giant) * (len(giant) - 1) // 2
    # total counts each ordered pair once, i.e. each unordered pair twice
    return PathStats(total / 2 / pairs, diameter, len(comps), len(giant))


def metrics_report(graph: Graph) -> MetricsReport:
    """The full statistic bundle for one graph."""
    deg = degree_stats(graph)
    clu = clustering(graph)
    pat = path_stats(graph)
    return MetricsReport(
        node_count=graph.node_count,
        link_count=graph.link_count,
        mean_degree=deg.mean_degree,
        max_degree=deg.max_degree,
        mean_clustering=clu.mean,
        max_clustering=clu.max,
        mean_shortest_path=pat.mean_shortest_path,
        diameter=pat.diameter,
        component_count=pat.component_count,
        giant_component_size=pat.giant_component_size,
    )


# Each evolution metric, read off the cheapest function that defines it;
# every value equals the same field of metrics_report.
_EVOLUTION = {
    "node_count": lambda g: g.node_count,
    "link_count": lambda g: g.link_count,
    "mean_degree": lambda g: degree_stats(g).mean_degree,
    "mean_clustering": lambda g: clustering(g).mean,
    "giant_component_size": lambda g: max(map(len, connected_components(g)), default=0),
    "component_count": lambda g: len(connected_components(g)),
}
EVOLUTION_METRICS = tuple(_EVOLUTION)


@dataclass
class EvolutionSeries:
    layer: Layer
    metric: str
    points: list[tuple[TimeIndex, float | int]]


def evolution_series(corpus: Corpus, layer: Layer, metric: str) -> EvolutionSeries:
    """One metric value per (volume, issue) present, on cumulative snapshots."""
    if metric not in EVOLUTION_METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; valid metrics: {', '.join(EVOLUTION_METRICS)}"
        )
    value = _EVOLUTION[metric]
    points = [(t, value(build_layer(snapshot(corpus, t), layer))) for t in corpus.time_indexes()]
    return EvolutionSeries(layer, metric, points)
