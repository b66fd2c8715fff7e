"""Weighted graph container with typed nodes.

Nodes are (kind, id) named tuples so authors, papers, PACS codes and
cited works can coexist in one structure (the bipartite layers need two
kinds at once); they order, hash and compare as that pair, so sorting
nodes needs no key.  Links carry positive integer weights counting
multiplicity: shared papers, shared codes, co-citations.  Each node's
row is one dict from neighbour index to weight, its keys in ascending
order.  The :class:`Graph` constructor is the one place that puts rows
in that form: builders hand it rows in any key order, and it sorts them,
refuses a self-loop and derives a directed graph's in-rows, or holds a
one-mode graph's groups.  ``Graph._row`` reads any one row, deriving a
group-held one with :func:`_co_members`, the one pair-count kernel, and
keeping none.
Walks need no rows: :func:`bfs`, :func:`components` and
:func:`neighbour_bits` read any graph's :meth:`Graph.hops`.  A graph is
immutable once built and every accessor returns data in canonical
sorted order, so reports and exported files are reproducible byte for byte.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import eq, or_
from typing import Iterable, Iterator

from .corpus import PACS_RE, PAPER_ID_RE

AUTHOR = "author"
PAPER = "paper"
PACS = "pacs"
REFERENCE = "reference"

NODE_KINDS = (AUTHOR, PAPER, PACS, REFERENCE)

DIRECTIONS = ("both", "out", "in")


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


# Each kind's ids written as text, as full-match rules: the one statement of
# what an id looks like, for CLI tokens and Pajek labels alike.
ID_RULES = {
    AUTHOR: re.compile(r"-?[0-9]+"),
    PAPER: PAPER_ID_RE,
    PACS: PACS_RE,
    REFERENCE: re.compile(r".+", re.DOTALL),  # cited-work keys: any non-empty text
}


def read_node(kind: str, text: str) -> NodeRef:
    """The ``kind`` node that ``text`` names; ValueError if ``kind``'s id rule rejects it."""
    if kind in ID_RULES and not ID_RULES[kind].fullmatch(text):
        raise GraphError(f"{text!r} is not a valid {kind} id")
    return NodeRef(kind, int(text) if kind == AUTHOR else text)


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
    graph its corpus keeps, so the rows :meth:`rows` returns are the
    graph's own dicts and must never be mutated.
    No parallel links (duplicates aggregate into the weight), weights
    always >= 1, and no self-loops: the constructor refuses a row that
    holds its own node.

    ``nodes`` come in sorted order and node ``i`` is ``nodes[i]``.
    ``rows`` is any iterable giving, for each node in turn, a mapping
    from neighbour index to link weight, in any key order: a directed
    graph's out-arcs, or an undirected graph's edges, each edge in the
    rows of both its ends.  The constructor stores each row as a dict
    with keys ascending, so iterating a row gives canonical neighbour
    order, and derives a directed graph's in-arc rows from its out-rows.
    An undirected one-mode graph may be given ``groups`` and ``held``
    instead: ascending member index lists, each holding a node once, where two
    nodes link once per group holding both, and the groups holding each
    node.  It keeps both as given, shared with the layer's index, and
    never rows: :meth:`hops` hands them out as they are, while
    :meth:`rows` and :meth:`row` derive rows from them and keep none.
    """

    def __init__(self, directed, nodes, rows=None, aux=None, groups=None, held=None):
        self.directed = directed
        self._nodes = tuple(nodes)
        self._index = {node: i for i, node in enumerate(self._nodes)}
        self._aux = dict(aux) if aux else None
        self._both = self._degrees = self._out = self._in = None
        self._groups, self._held = groups, held
        if groups is None:
            self._out = self._in = tuple(dict(sorted(row.items())) for row in rows)
            for i, row in enumerate(self._out):
                if i in row:
                    raise GraphError(f"self-loop rejected: ({self._nodes[i]}, {self._nodes[i]})")
            if directed:
                self._in = tuple({} for _ in self._nodes)
                for a, row in enumerate(self._out):  # a ascends, so every in-row does too
                    for b, w in row.items():
                        self._in[b][a] = w

    def _group_degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(map(int.bit_count, neighbour_bits(self._groups, self._held)))
        return self._degrees

    # -- node accessors ----------------------------------------------------

    def nodes(self) -> list[NodeRef]:
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def has_node(self, node: NodeRef) -> bool:
        return node in self._index

    def index(self, node: NodeRef) -> int:
        """Position of the node in nodes(): its row in rows()."""
        return self._index[node]

    @property
    def aux_counts(self) -> dict[NodeRef, int] | None:
        """Optional per-node auxiliary count (co-authorship: papers written)."""
        return dict(self._aux) if self._aux is not None else None

    # -- link accessors ----------------------------------------------------

    @property
    def link_count(self) -> int:
        # a group-held graph counts each link at both its ends, as the out-rows do
        arcs = sum(self._group_degrees() if self._groups is not None else map(len, self._out))
        return arcs if self.directed else arcs // 2

    def rows(self, direction: str = "out") -> tuple[dict[int, int], ...] | Iterator[dict[int, int]]:
        """{neighbour index: weight} rows in node index order: "out", "in" or "both" ways.

        All three agree on an undirected graph.  A link graph gives its own
        rows, shared: never mutate them.  A directed one's "both" rows are
        each node's :meth:`_row` ``(i, "both")``, keys ascending, built on
        first read and kept.  A group-held graph derives each row as it is
        reached and keeps none.
        """
        check_direction(direction)
        derived = (dict(sorted(self._row(i, direction).items())) for i in range(len(self._nodes)))
        if self._groups is not None:
            return derived
        if direction == "both" and self.directed:
            if self._both is None:
                self._both = tuple(derived)
            return self._both
        return self._in if direction == "in" else self._out

    def hops(self, direction: str = "both") -> tuple:
        """``(groups, held)``: one hop from node ``i`` reaches every member
        of every group in ``held[i]`` but ``i``.  A group-held graph gives
        its own and keeps no rows; a link graph, its :meth:`rows` for
        ``direction`` as the groups, node ``i`` holding group ``i`` alone."""
        check_direction(direction)
        if self._groups is not None:
            return self._groups, self._held
        if self._held is None:  # node i holds group i alone: built once
            self._held = list(zip(range(len(self._nodes))))
        return self.rows(direction), self._held

    def row(self, node: NodeRef, direction: str = "out") -> dict[NodeRef, int]:
        """{neighbour: weight} of one node in node order: its row of
        :meth:`rows` for ``direction``, read with :meth:`_row`."""
        check_direction(direction)
        counts, nodes = self._row(self._index[node], direction), self._nodes
        return {nodes[j]: counts[j] for j in sorted(counts)}

    def _row(self, i: int, direction: str = "out") -> dict[int, int]:
        """Node ``i``'s {neighbour index: weight}, keys in any order.  A group-held
        graph derives it and keeps none; a directed graph's "both" merges the node's
        out-row and in-row, weights of opposite arcs adding; any other is the stored row."""
        if self._groups is not None:
            return _co_members(i, map(self._groups.__getitem__, self._held[i]))
        if direction == "both" and self.directed:
            out = self._out[i]
            return out | {j: out.get(j, 0) + w for j, w in self._in[i].items()}
        return (self._in if direction == "in" else self._out)[i]

    def degree(self, node: NodeRef) -> int:
        """Neighbour count; for directed graphs out-degree plus in-degree."""
        i = self._index[node]
        if self._groups is not None:
            return self._group_degrees()[i]
        return len(self._out[i]) + (len(self._in[i]) if self.directed else 0)

    def links(self) -> Iterator[tuple[NodeRef, NodeRef, int]]:
        """Canonical link iteration: undirected edges once with u < v, sorted."""
        nodes = self._nodes
        return ((nodes[i], nodes[j], w) for i, (keys, weights) in enumerate(self._link_rows())
                for j, w in zip(keys, weights))

    def _link_rows(self) -> Iterator[tuple[list[int], Iterator[int]]]:
        """``(keys, weights)`` of the links each node starts, keys ascending: the far ends
        above the node if undirected, a directed graph's out-arcs.  A group-held graph counts
        only those, from its groups' members above the node, sorts the keys and keeps no row."""
        for i in range(len(self._nodes)):
            if self._groups is not None:
                above = (g[bisect_right(g, i):] for g in map(self._groups.__getitem__, self._held[i]))
                keys = sorted(row := _co_members(i, above))
            else:
                keys = list(row := self._out[i])
                keys = keys if self.directed else keys[bisect_right(keys, i):]
            yield keys, map(row.__getitem__, keys)

    def _neighbour_keys(self) -> Iterator[list[int]]:
        """Each node's neighbours either way, as the ascending keys of its ``_row(i, "both")``."""
        return (sorted(self._row(i, "both")) for i in range(len(self._nodes)))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        # Equality is over topology and weights; aux counts are presentation.
        if not isinstance(other, Graph):
            return NotImplemented
        # rows() keeps no row a group-held graph derives, so comparing keeps none either
        return (self.directed, self._nodes) == (other.directed, other._nodes) and all(
            map(eq, self.rows(), other.rows()))

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
    ends.  Weights below 1 are rejected here, and self-loops by :class:`Graph`.
    """
    links = list(links)
    ends = {*isolated_nodes, *(u for u, _, _ in links), *(v for _, v, _ in links)}
    nodes = sorted(ends)
    index = {node: i for i, node in enumerate(nodes)}
    arcs: list[dict[int, int]] = [{} for _ in nodes]  # a -> {b: weight of a -> b}
    for u, v, w in links:
        a, b = index[u], index[v]
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise GraphError(f"link weight must be an integer >= 1, got {w!r} for ({u}, {v})")
        arcs[a][b] = arcs[a].get(b, 0) + w
        if not directed:
            arcs[b][a] = arcs[b].get(a, 0) + w
    return Graph(directed, nodes, arcs)


def bfs(groups, held, source: int, depth: int | None = None) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search over a hop form such as Graph.hops().

    Returns the visit order and each visited node's hop distance.  Each
    group is walked once, in stored order, so ascending rows give the
    canonical order.  With ``depth``, nodes farther than that are not visited.
    """
    dist = {source: 0}
    order = [source]
    walked = set()
    for u in order:  # order grows while it is walked: that is the queue
        d = dist[u] + 1
        if depth is not None and d > depth:
            break
        for g in held[u]:
            if g not in walked:
                walked.add(g)
                for v in groups[g]:
                    if v not in dist:
                        dist[v] = d
                        order.append(v)
    return order, dist


def components(groups, held) -> list[list[int]]:
    """Connected components of a hop form, as ascending index lists
    ordered by their smallest index."""
    seen: set[int] = set()
    result = []
    for start in range(len(held)):
        if start not in seen:
            order, _ = bfs(groups, held, start)
            seen.update(order)
            result.append(sorted(order))
    return result


def neighbour_bits(groups, held) -> Iterator[int]:
    """Each node's neighbours in a hop form as a bitset, in node order:
    the OR of its groups' member bitsets, less the node itself."""
    bits = [sum(1 << i for i in members) for members in groups]
    return (reduce(or_, map(bits.__getitem__, held_i), 1 << i) ^ 1 << i
            for i, held_i in enumerate(held))


@dataclass(frozen=True)
class AdjacencyRow:
    """One node with its sorted nearest neighbours, degree and aux count."""

    node: NodeRef
    neighbours: tuple[NodeRef, ...]
    degree: int
    aux_count: int


def adjacency_rows(graph: Graph) -> Iterator[AdjacencyRow]:
    """One row per node, sorted by node id, made from :meth:`Graph._neighbour_keys`.

    For directed graphs the neighbour column is the union of out- and
    in-neighbours, and the degree counts them once each, with no
    both-ways row kept.  The graph's own aux counts fill the last
    column; a graph without them gives zero.
    """
    aux, nodes = graph.aux_counts, graph.nodes()
    return (AdjacencyRow(node, tuple(map(nodes.__getitem__, keys)), len(keys), aux[node] if aux else 0)
            for node, keys in zip(nodes, graph._neighbour_keys()))


def check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")


def _co_members(member, groups) -> Counter:
    """How many of ``groups``, none holding an id twice, each member other than ``member`` is in."""
    counts = Counter(chain.from_iterable(groups))
    del counts[member]
    return counts
