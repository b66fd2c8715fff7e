"""Related-item queries across one or several network layers.

A neighborhood is the exact BFS ball of a given radius around a seed
node in a built layer, walked through ``Graph.hops()``, so it keeps no
row.  Overlap queries intersect the direct neighbours of a seed across
several layers; ranking orders every node adjacent in at least one
layer by how many layers agree, then by total link weight.
Both read the seed's own row of each layer through the layer's graph,
which ``build_layer`` builds once per corpus; a one-mode layer derives
that one row from its groups and keeps no rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .corpus import Corpus
from .graph import DIRECTIONS, Graph, NodeRef, bfs, check_direction
from .layers import Layer, build_layer


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
    nodes = graph.nodes()
    _, dist = bfs(*graph.hops(direction), graph.index(seed), depth)
    return NeighborhoodResult(seed, depth, {nodes[v]: d for v, d in dist.items() if d})


@dataclass
class OverlapResult:
    seed: NodeRef
    layers: tuple[Layer, ...]
    per_layer: dict[Layer, frozenset[NodeRef]]
    common: frozenset[NodeRef]


class RelatedItem(NamedTuple):
    node: NodeRef
    layer_count: int
    weight_sum: int


def _check_query(seed: NodeRef, layers: Sequence[Layer], direction: str) -> tuple[Layer, ...]:
    """Validate a multi-layer query; repeated layers collapse to one."""
    check_direction(direction)
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


def _seed_rows(corpus: Corpus, seed: NodeRef, layers: tuple[Layer, ...], direction: str):
    """Each layer with the seed's row in it: {neighbour: weight}."""
    for layer in layers:
        graph = build_layer(corpus, layer)
        if not graph.has_node(seed):
            raise ValueError(f"seed node {seed} is not in the graph")
        yield layer, graph.row(seed, direction)


def layer_overlap(
    corpus: Corpus,
    seed: NodeRef,
    layers: Iterable[Layer],
    citation_direction: str = "both",
) -> OverlapResult:
    """Nodes directly related to the seed in every one of the given layers."""
    layers = _check_query(seed, tuple(layers), citation_direction)
    rows = _seed_rows(corpus, seed, layers, citation_direction)
    per_layer = {layer: frozenset(row) for layer, row in rows}
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
    counts, weights = Counter(), Counter()
    for _, row in _seed_rows(corpus, seed, layers, citation_direction):
        counts.update(row.keys())
        weights.update(row)
    order = sorted((-count, -weights[node], node) for node, count in counts.items())
    return [RelatedItem(node, -count, -weight) for count, weight, node in order]
