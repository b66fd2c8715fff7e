"""Weighted graph container with typed nodes.

Nodes are (kind, id) named tuples so authors, papers, PACS codes and
cited works can coexist in one structure (the bipartite layers need two
kinds at once); they order, hash and compare as that pair, so sorting
nodes needs no key.  Links carry positive integer weights counting
multiplicity: shared papers, shared codes, co-citations.  Each node's
row is one dict from neighbour index to weight, its keys in ascending
order.  The :class:`Graph` constructor is the one place that puts rows
in that form: builders hand it rows in any key order, and it sorts them
and derives a directed graph's in-rows.  A graph is immutable once built
and every accessor returns data in canonical sorted order, so reports
and exported files are reproducible byte for byte.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator

AUTHOR = "author"
PAPER = "paper"
PACS = "pacs"
REFERENCE = "reference"

NODE_KINDS = (AUTHOR, PAPER, PACS, REFERENCE)


class GraphError(ValueError):
    """Structurally invalid graph input: self-loop, bad weight, bad node."""


class NodeRef(namedtuple("NodeRef", "kind id")):
    """Typed node handle: a (kind, id) tuple, checked when built.

    Author ids are integers, all other ids text.  Order, equality and
    hash are the tuple's, so nodes sort by kind, then id, and
    ``NodeRef("author", 1) == ("author", 1)``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, id: int | str):
        if kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {kind!r}; expected one of {NODE_KINDS}")
        if kind == AUTHOR:
            if not isinstance(id, int) or isinstance(id, bool):
                raise GraphError(f"author ids are integers, got {id!r}")
        elif not isinstance(id, str):
            raise GraphError(f"{kind} ids are text, got {id!r}")
        return super().__new__(cls, kind, id)

    def __str__(self):
        return f"{self.kind}:{self.id}"


def author_node(author_id: int) -> NodeRef:
    return NodeRef(AUTHOR, author_id)


def paper_node(paper_id: str) -> NodeRef:
    return NodeRef(PAPER, paper_id)


def pacs_node(code: str) -> NodeRef:
    return NodeRef(PACS, code)


def reference_node(key: str) -> NodeRef:
    return NodeRef(REFERENCE, key)


class Graph:
    """Undirected edges or directed arcs over NodeRef nodes.

    Build instances with :func:`build_graph`, or straight from nodes and
    rows as the layer builders do; treat them as read-only afterwards.
    A graph may be shared: ``build_layer`` hands every caller the one
    graph its corpus keeps, so the rows :meth:`adjacency` returns are
    the graph's own dicts and must never be mutated.
    No self-loops, no parallel links (duplicates aggregate into the
    weight), weights always >= 1.

    ``nodes`` come in sorted order and node ``i`` is ``nodes[i]``.
    ``rows`` is any iterable giving, for each node in turn, a mapping
    from neighbour index to link weight, in any key order: a directed
    graph's out-arcs, or an undirected graph's edges, each edge in the
    rows of both its ends.  The constructor stores each row as a dict
    with keys ascending, so iterating a row gives canonical neighbour
    order, and derives a directed graph's in-arc rows from its out-rows.
    """

    def __init__(self, directed, nodes, rows, aux=None):
        self.directed = directed
        self._nodes = tuple(nodes)
        self._index = {node: i for i, node in enumerate(self._nodes)}
        self._out = tuple(dict(sorted(row.items())) for row in rows)
        self._in = self._out
        if directed:
            self._in = tuple({} for _ in self._nodes)
            for a, row in enumerate(self._out):  # a ascends, so every in-row does too
                for b, w in row.items():
                    self._in[b][a] = w
        self._arc_count = sum(map(len, self._out))
        self._aux = dict(aux) if aux else None
        self._symmetrized = None

    # -- node accessors ----------------------------------------------------

    def nodes(self) -> list[NodeRef]:
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def has_node(self, node: NodeRef) -> bool:
        return node in self._index

    def index(self, node: NodeRef) -> int:
        """Position of the node in nodes(): its row in adjacency()."""
        return self._index[node]

    @property
    def aux_counts(self) -> dict[NodeRef, int] | None:
        """Optional per-node auxiliary count (co-authorship: papers written)."""
        return dict(self._aux) if self._aux is not None else None

    # -- link accessors ----------------------------------------------------

    @property
    def link_count(self) -> int:
        return self._arc_count if self.directed else self._arc_count // 2

    def adjacency(self, direction: str = "out") -> tuple[dict[int, int], ...]:
        """{neighbour index: weight} rows by node index: "out", "in" or "both" ways.

        "both" gives the rows of :meth:`symmetrized`, whose nodes have
        the same indices.  All three agree on an undirected graph.  The
        rows are the graph's own and shared: never mutate them.
        """
        if direction == "both":
            return self.symmetrized()._out
        return {"out": self._out, "in": self._in}[direction]

    def neighbors(self, node: NodeRef) -> list[NodeRef]:
        """Sorted neighbours; out-neighbours for a directed graph."""
        return [self._nodes[j] for j in self._out[self._index[node]]]

    def in_neighbors(self, node: NodeRef) -> list[NodeRef]:
        return [self._nodes[j] for j in self._in[self._index[node]]]

    def all_neighbors(self, node: NodeRef) -> list[NodeRef]:
        """Out and in neighbours combined (identical to neighbors when undirected)."""
        return [self._nodes[j] for j in self.adjacency("both")[self._index[node]]]

    def has_link(self, u: NodeRef, v: NodeRef) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and j in self._out[i]

    def weight(self, u: NodeRef, v: NodeRef) -> int:
        w = self._out[self._index[u]].get(self._index[v])
        if w is None:
            raise KeyError((u, v))
        return w

    def degree(self, node: NodeRef) -> int:
        """Neighbour count; for directed graphs out-degree plus in-degree."""
        i = self._index[node]
        return len(self._out[i]) + (len(self._in[i]) if self.directed else 0)

    def links(self) -> Iterator[tuple[NodeRef, NodeRef, int]]:
        """Canonical link iteration: undirected edges once with u < v, sorted."""
        nodes = self._nodes
        for i, row in enumerate(self._out):
            for j, w in row.items():
                if self.directed or i < j:
                    yield nodes[i], nodes[j], w

    def symmetrized(self) -> "Graph":
        """Undirected view of a directed graph; weights of opposite arcs add.

        Each row merges the node's out-row and in-row over the same nodes
        tuple; aux counts are left out.  Built once, on first call.
        """
        if not self.directed:
            return self
        if self._symmetrized is None:
            rows = (row | {j: row.get(j, 0) + w for j, w in back.items()}
                    for row, back in zip(self._out, self._in))
            self._symmetrized = Graph(False, self._nodes, rows)
        return self._symmetrized

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        # Equality is over topology and weights; aux counts are presentation.
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.directed, self._nodes, self._out) == (
            other.directed, other._nodes, other._out
        )

    def __repr__(self):
        shape = "directed" if self.directed else "undirected"
        return f"<Graph {shape} nodes={self.node_count} links={self.link_count}>"


def build_graph(
    directed: bool,
    links: Iterable[tuple[NodeRef, NodeRef, int]],
    isolated_nodes: Iterable[NodeRef] = (),
) -> Graph:
    """Aggregate caller-supplied (u, v, weight) triples into a Graph.

    This is the constructor for links that come from outside the layer
    builders: Pajek files, the public API and tests.  The nodes are the
    ``isolated_nodes`` and both ends of every link, numbered in sorted
    order.  Duplicate links add their weights.  For undirected graphs
    (u, v) and (v, u) are the same link, written into the rows of both
    ends.  Self-loops and weights below 1 are rejected.
    """
    links = list(links)
    ends = {*isolated_nodes, *(u for u, _, _ in links), *(v for _, v, _ in links)}
    nodes = sorted(ends)
    index = {node: i for i, node in enumerate(nodes)}
    arcs: list[dict[int, int]] = [{} for _ in nodes]  # a -> {b: weight of a -> b}
    for u, v, w in links:
        a, b = index[u], index[v]
        if a == b:
            raise GraphError(f"self-loop rejected: ({u}, {v})")
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise GraphError(f"link weight must be an integer >= 1, got {w!r} for ({u}, {v})")
        arcs[a][b] = arcs[a].get(b, 0) + w
        if not directed:
            arcs[b][a] = arcs[b].get(a, 0) + w
    return Graph(directed, nodes, arcs)


def bfs(adj, source: int, depth: int | None = None) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search over rows such as Graph.adjacency().

    Returns the visit order and each visited node's hop distance.  Rows
    are walked in stored order, so ascending rows give the canonical
    order.  With ``depth``, nodes farther than that are not visited.
    """
    dist = {source: 0}
    order = [source]
    for u in order:  # order grows while it is walked: that is the queue
        d = dist[u] + 1
        if depth is not None and d > depth:
            break
        for v in adj[u]:
            if v not in dist:
                dist[v] = d
                order.append(v)
    return order, dist


def components(adj) -> list[list[int]]:
    """Connected components of symmetric rows, as ascending index
    lists ordered by their smallest index."""
    seen: set[int] = set()
    result = []
    for start in range(len(adj)):
        if start not in seen:
            order, _ = bfs(adj, start)
            seen.update(order)
            result.append(sorted(order))
    return result


@dataclass(frozen=True)
class AdjacencyRow:
    """One node with its sorted nearest neighbours, degree and aux count."""

    node: NodeRef
    neighbours: tuple[NodeRef, ...]
    degree: int
    aux_count: int


def adjacency_rows(graph: Graph) -> list[AdjacencyRow]:
    """One row per node, sorted by node id.

    For directed graphs the neighbour column is the union of out- and
    in-neighbours and the degree counts them once each.  The graph's own
    aux counts fill the last column; a graph without them gives zero.
    """
    aux = graph.aux_counts
    nodes = graph.nodes()
    return [
        AdjacencyRow(node, tuple(nodes[j] for j in row), len(row), aux[node] if aux else 0)
        for node, row in zip(nodes, graph.adjacency("both"))
    ]
