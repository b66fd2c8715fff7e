"""Related-item queries across one or several network layers.

A neighborhood is the exact BFS ball of a given radius around a seed
node in a built layer.  Overlap queries intersect the direct neighbours
of a seed across several layers; ranking orders every node adjacent in
at least one layer by how many layers agree, then by total link weight.
Both read only the seed's own row of each layer, straight from the
corpus, and build no layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Corpus
from .graph import Graph, NodeRef, bfs
from .layers import Layer, _seed_row

DIRECTIONS = ("both", "out", "in")


@dataclass
class NeighborhoodResult:
    seed: NodeRef
    depth: int
    members: dict[NodeRef, int]


def neighborhood(
    graph: Graph, seed: NodeRef, depth: int, direction: str = "both"
) -> NeighborhoodResult:
    """All nodes within ``depth`` hops of the seed, with their distances.

    The seed itself is excluded.  Directed graphs are walked both ways
    unless ``direction`` restricts the traversal to out- or in-arcs.
    """
    if not graph.has_node(seed):
        raise ValueError(f"seed node {seed} is not in the graph")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    nodes = graph.nodes()
    _, dist = bfs(graph.adjacency(direction), graph.index(seed), depth)
    return NeighborhoodResult(seed, depth, {nodes[v]: d for v, d in dist.items() if d})


@dataclass
class OverlapResult:
    seed: NodeRef
    layers: tuple[Layer, ...]
    per_layer: dict[Layer, frozenset[NodeRef]]
    common: frozenset[NodeRef]


@dataclass(frozen=True)
class RelatedItem:
    node: NodeRef
    layer_count: int
    weight_sum: int


def _check_query(seed: NodeRef, layers: Sequence[Layer], direction: str) -> tuple[Layer, ...]:
    """Validate a multi-layer query; repeated layers collapse to one."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    deduped = tuple(dict.fromkeys(layers))
    if len(deduped) < 2:
        raise ValueError("need at least two distinct layers to compare")
    for layer in deduped:
        if seed.kind not in layer.node_kinds:
            raise ValueError(
                f"seed kind {seed.kind!r} does not fit layer {layer.value!r}"
                f" (holds {', '.join(sorted(layer.node_kinds))} nodes)"
            )
    return deduped


def layer_overlap(
    corpus: Corpus,
    seed: NodeRef,
    layers: Iterable[Layer],
    citation_direction: str = "both",
) -> OverlapResult:
    """Nodes directly related to the seed in every one of the given layers."""
    layers = _check_query(seed, tuple(layers), citation_direction)
    rows = {layer: _seed_row(corpus, layer, seed, citation_direction) for layer in layers}
    keys = {layer: [(kind, x) for x in row] for layer, (kind, row) in rows.items()}
    nodes = {key: NodeRef(*key) for key in set().union(*keys.values())}
    per_layer = {layer: frozenset(map(nodes.__getitem__, row)) for layer, row in keys.items()}
    common = frozenset.intersection(*per_layer.values())
    return OverlapResult(seed, layers, per_layer, common)


def related_rank(
    corpus: Corpus,
    seed: NodeRef,
    layers: Iterable[Layer],
    citation_direction: str = "both",
) -> list[RelatedItem]:
    """Every node adjacent to the seed in >= 1 layer, best-connected first.

    Sorted by number of agreeing layers, then total weight, then node id;
    the id tie-break makes the order total.
    """
    layers = _check_query(seed, tuple(layers), citation_direction)
    counts: dict[tuple, int] = {}  # keyed by (kind, id), which sorts as NodeRef.sort_key
    weights: dict[tuple, int] = {}
    for layer in layers:
        kind, row = _seed_row(corpus, layer, seed, citation_direction)
        for x, w in row.items():
            key = kind, x
            counts[key] = counts.get(key, 0) + 1
            weights[key] = weights.get(key, 0) + w
    order = sorted((-count, -weights[key], key) for key, count in counts.items())
    return [RelatedItem(NodeRef(*key), -count, -weight) for count, weight, key in order]
