"""Standard network statistics and their evolution over time slices.

Degrees, local clustering, shortest paths and connected components,
bundled into one report per graph.  Paths count unweighted hops, and
clustering and paths read a directed graph both ways.  All of them walk
the graph's ``hops()``, so a one-mode layer keeps no rows.  Mean shortest
path and diameter come from one all-sources sweep over node bitsets
(Then et al., PVLDB 2014) on the largest component, with the component
count and giant size reported too, so nothing disconnected is hidden.
An evolution series computes only its one metric on each snapshot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .corpus import Corpus, TimeIndex, snapshot
from .graph import Graph, NodeRef, bfs, components, neighbour_bits
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

    Directed graphs use total degree (in plus out); their mean out- and
    in-degree, equal as each arc leaves one node and enters one, are extras.
    """
    nodes = graph.nodes()
    if not nodes:
        return DegreeStats(0.0, 0, {})
    degrees = [graph.degree(n) for n in nodes]
    dist = dict(sorted(Counter(degrees).items()))
    stats = DegreeStats(sum(degrees) / len(nodes), max(degrees), dist)
    if graph.directed:
        stats.mean_out_degree = stats.mean_in_degree = graph.link_count / len(nodes)
    return stats


def clustering(graph: Graph) -> ClusteringStats:
    """Local clustering coefficient per node, with mean and maximum.

    C(v) = 2 T(v) / (k (k - 1)) where T(v) counts links among v's
    neighbours; nodes of degree < 2 get C = 0 and stay in the mean.
    """
    nodes = graph.nodes()
    if not nodes:
        return ClusteringStats({}, 0.0, 0.0, {})
    groups, held = graph.hops()
    bits = list(neighbour_bits(groups, held))  # bit u of bits[v]: u is a neighbour of v
    ends = [0] * len(nodes)  # 2 T(v): each link among v's neighbours, from both its ends
    for u, held_u in enumerate(held):
        for v in set().union(*map(groups.__getitem__, held_u)):
            if v > u:  # once per link (u, v), added at both ends
                common = (bits[u] & bits[v]).bit_count()
                ends[u] += common
                ends[v] += common
    triangles = {node: count // 2 for node, count in zip(nodes, ends)}
    per_node = {node: 2.0 * t / (k * (k - 1)) if k >= 2 else 0.0
                for (node, t), k in zip(triangles.items(), map(int.bit_count, bits))}
    values = list(per_node.values())
    return ClusteringStats(per_node, sum(values) / len(values), max(values), triangles)


def bfs_distances(graph: Graph, source: NodeRef) -> dict[NodeRef, int]:
    """Hop distances from source to every reachable node (direction ignored)."""
    nodes = graph.nodes()
    _, dist = bfs(*graph.hops(), graph.index(source))
    return {nodes[v]: d for v, d in dist.items()}


def connected_components(graph: Graph) -> list[list[NodeRef]]:
    """Components as sorted node lists, ordered by their smallest node."""
    nodes = graph.nodes()
    return [[nodes[v] for v in comp] for comp in components(*graph.hops())]


def path_stats(graph: Graph) -> PathStats:
    """Mean shortest path and diameter over the largest component.

    A giant component of one node (or an empty graph) scores zero for
    both.  Ties for largest go to the component holding the smallest
    node, keeping results deterministic.
    """
    groups, held = graph.hops()
    comps = components(groups, held)
    if not comps:
        return PathStats(0.0, 0, 0, 0)
    giant = max(comps, key=len)
    if len(giant) < 2:
        return PathStats(0.0, 0, len(comps), len(giant))
    # Bit s of reach[v] is set once v is within `diameter` hops of source s:
    # each sweep's new bits are the ordered pairs that lie that many hops apart.
    reach = {v: 1 << v for v in giant}
    walked = {g for v in giant for g in held[v]}  # the giant's groups hold giant nodes only
    total, diameter, reached = 0, 0, len(giant)
    while reached < len(giant) ** 2:  # the giant is connected, so every sweep sets a bit
        diameter += 1
        # a group reaches what any member reaches; a node, what its groups reach
        greach = {g: reduce(or_, map(reach.__getitem__, groups[g])) for g in walked}
        for v, own in reach.items():
            reach[v] = reduce(or_, map(greach.__getitem__, held[v]), own)
        del greach  # else the next sweep's group reach would be built beside it
        now = sum(map(int.bit_count, reach.values()))
        total, reached = total + diameter * (now - reached), now
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
