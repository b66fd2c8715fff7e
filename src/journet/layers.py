"""Construction of every network layer a journal corpus supports.

Every layer is read off one of five relations in the corpus: an author
wrote a paper, a paper carries a PACS code, a paper cites a work or a
journal paper, and an author on record uses a code in any of their
papers.  A relation is the (left id, right id) pairs its records hold,
which :func:`_ends` indexes both ways once per corpus.  One builder,
:func:`_build`, turns that index into any layer: the bipartite layers
and the citation layer hold a relation's links as they are, and a
one-mode layer keeps one side of a relation and links two of its nodes
once per node of the other side they share, as counted by one
pair-count kernel, :func:`_co_members`.  :func:`build_layer` builds a
whole layer once per corpus; :func:`_seed_row` reads one node's row off
the same index.  :func:`project_one_mode` counts the same shared
neighbours straight off the rows of any two-kind graph, such as one read
back from Pajek.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable

from .corpus import Corpus
from .graph import (
    AUTHOR,
    PACS,
    PAPER,
    REFERENCE,
    Graph,
    GraphError,
    NodeRef,
)


class Layer(Enum):
    """Named network layers; values double as CLI tokens."""

    COAUTHORSHIP = "coauthorship"
    PAPER_COMMON_AUTHOR = "paper-common-author"
    PAPER_CITATION = "paper-citation"
    PAPER_COMMON_PACS = "paper-common-pacs"
    COCITATION = "cocitation"
    COUPLING = "coupling"
    AUTHOR_COMMON_PACS = "author-common-pacs"
    BIPARTITE_AUTHOR_PAPER = "bipartite-author-paper"
    BIPARTITE_PAPER_PACS = "bipartite-paper-pacs"
    BIPARTITE_PAPER_REFERENCE = "bipartite-paper-reference"

    @property
    def directed(self) -> bool:
        return self is Layer.PAPER_CITATION

    @property
    def node_kinds(self) -> frozenset[str]:
        """Kinds of node this layer contains (two for bipartite layers)."""
        relation, side = _LAYERS[self]
        return frozenset(relation.kinds if side is None else {relation.kinds[side]})


@dataclass(frozen=True)
class _Relation:
    """Links from left nodes (side 0) to right nodes (side 1).

    ``pairs(corpus)`` gives the (left id, right id) pair of every link the
    records hold, a link as often as the records repeat it; ``keeps[s]``,
    if given, maps the corpus to the ids side ``s`` holds even without a
    link.  :func:`_ends` indexes the pairs both ways.
    """

    kinds: tuple[str, str]
    pairs: Callable[[Corpus], Iterable[tuple]]
    keeps: tuple[Callable | None, Callable | None]


_AUTHORS, _PAPERS = attrgetter("authors"), attrgetter("papers")

_WROTE = _Relation(
    (AUTHOR, PAPER),
    lambda c: ((a, p.paper_id) for p in c.papers.values() for a in p.author_ids),
    (_AUTHORS, _PAPERS),
)
_CARRIES = _Relation(
    (PAPER, PACS),
    lambda c: ((p.paper_id, k) for p in c.papers.values() for k in p.pacs_codes),
    (_PAPERS, None),
)
_CITES_WORK = _Relation(
    (PAPER, REFERENCE),
    lambda c: ((p.paper_id, r.key) for p in c.papers.values() for r in p.reference_keys),
    (_PAPERS, None),
)
_CITES_PAPER = _Relation(
    (PAPER, PAPER),
    lambda c: ((p.paper_id, r.internal_paper_id) for p in c.papers.values()
               for r in p.reference_keys if r.internal_paper_id is not None),
    (_PAPERS, _PAPERS),
)
_USES_CODE = _Relation(  # authors on record only
    (AUTHOR, PACS),
    lambda c: ((a, k) for p in c.papers.values() for a in p.author_ids if a in c.authors
               for k in p.pacs_codes),
    (_AUTHORS, None),
)


def _ends(corpus: Corpus, relation: _Relation) -> tuple[dict, dict]:
    """A relation's links indexed both ways: for each side, every id the
    side holds, linked or kept, mapped to a tuple of its far ends, each
    far end once however often the records repeat the link.  Built on
    first call and kept in the corpus, like its layers."""
    if relation not in corpus._memo:
        index = [defaultdict(dict, {x: {} for x in keep(corpus)} if keep else ())
                 for keep in relation.keeps]
        left, right = index
        for x, y in relation.pairs(corpus):
            left[x][y] = None
            right[y][x] = None
        corpus._memo[relation] = tuple({x: tuple(ys) for x, ys in side.items()} for side in index)
    return corpus._memo[relation]


# Each layer as (relation, side): a one-mode layer keeps that side of the
# relation; side None keeps the relation's links as the layer.
_LAYERS = {
    Layer.COAUTHORSHIP: (_WROTE, 0),
    Layer.PAPER_COMMON_AUTHOR: (_WROTE, 1),
    Layer.PAPER_COMMON_PACS: (_CARRIES, 0),
    Layer.COUPLING: (_CITES_WORK, 0),
    Layer.COCITATION: (_CITES_WORK, 1),
    Layer.AUTHOR_COMMON_PACS: (_USES_CODE, 0),
    Layer.PAPER_CITATION: (_CITES_PAPER, None),
    Layer.BIPARTITE_AUTHOR_PAPER: (_WROTE, None),
    Layer.BIPARTITE_PAPER_PACS: (_CARRIES, None),
    Layer.BIPARTITE_PAPER_REFERENCE: (_CITES_WORK, None),
}


def is_bipartite_between(graph: Graph, left_kind: str, right_kind: str) -> bool:
    """Scan check: every link joins one left-kind node to one right-kind node."""
    return all({u.kind, v.kind} == {left_kind, right_kind} for u, v, _ in graph.links())


def _co_members(member, groups) -> Counter:
    """How many of ``groups``, each holding ``member`` and no id twice, each other member is in."""
    counts = Counter(chain.from_iterable(groups))
    del counts[member]
    return counts


def project_one_mode(graph: Graph, kind: str) -> Graph:
    """Collapse an undirected two-kind graph onto its ``kind`` nodes.

    Every link must join one ``kind`` node to a node of another kind.
    Two ``kind`` nodes link whenever they share at least one neighbour;
    the weight is the number of shared neighbours.  ``kind`` nodes
    without any shared neighbour stay as isolated nodes.
    """
    if graph.directed:
        raise ValueError("cannot project a directed graph")
    nodes, rows = graph.nodes(), graph.adjacency()
    kept = [i for i, node in enumerate(nodes) if node.kind == kind]
    new = {i: k for k, i in enumerate(kept)}  # keeps node order, so the nodes stay sorted
    if any((i in new) == (j in new) for i, row in enumerate(rows) for j in row):
        raise ValueError(f"every link must have exactly one {kind} end")
    projected = (_co_members(i, [rows[g] for g in rows[i]]) for i in kept)
    return Graph(False, [nodes[i] for i in kept],
                 ({new[j]: w for j, w in row.items()} for row in projected))


def build_layer(corpus: Corpus, layer: Layer, internal_only: bool = False) -> Graph:
    """The named layer of a corpus, built on first call.

    ``internal_only`` restricts the co-citation layer to cited works that
    are themselves journal papers; other layers ignore the flag.
    Citation arcs point from the citing paper to the cited one.
    Co-authorship carries each author's paper count as aux counts.

    The corpus keeps every layer built from it, with the layer's
    symmetrized view once read, for as long as the corpus lives, and a
    later call returns the same graph.  That trades memory for time:
    a dense one-mode layer of a 10^4-paper journal holds millions of
    links.  The graph is shared, so it must never be mutated.
    """
    key = layer, internal_only and layer is Layer.COCITATION
    if key not in corpus._memo:
        corpus._memo[key] = _build(corpus, *key)
    return corpus._memo[key]


def _build(corpus: Corpus, layer: Layer, internal_only: bool) -> Graph:
    """A layer read off its relation's :func:`_ends` index.

    The nodes are the ids of every side the layer keeps, linked or not,
    sorted by (kind, id), so each kind's ids take one run of indices.  A
    link layer writes each left node's far ends into its row at weight 1,
    and writes each link back into the far end's row unless the layer is
    directed; a link from a node to itself raises GraphError.  A one-mode
    layer links two nodes once per node of the other side whose far ends
    hold both.  ``internal_only`` keeps only cited works that some paper
    cites by journal id; co-authorship counts each author's papers as aux.
    """
    relation, side = _LAYERS[layer]
    ends = _ends(corpus, relation)
    ids = defaultdict(set)
    for s in (0, 1) if side is None else (side,):
        ids[relation.kinds[s]].update(ends[s])
    groups = () if side is None else ends[1 - side].values()
    if internal_only:
        keep = {r.key for p in corpus.papers.values() for r in p.reference_keys
                if r.internal_paper_id is not None}
        ids[REFERENCE] &= keep
        groups = (keep.intersection(g) for g in groups)
    nodes, index = [], {}
    for kind in sorted(ids):
        index[kind] = {x: i for i, x in enumerate(sorted(ids[kind]), len(nodes))}
        nodes += (NodeRef(kind, x) for x in index[kind])
    if side is None:
        (left, right), rows = relation.kinds, [{} for _ in nodes]
        at, to = index[left], index[right]
        for x, ys in ends[0].items():
            a = at[x]
            row = rows[a] = {to[y]: 1 for y in ys}
            if a in row:
                raise GraphError(f"self-loop rejected: ({NodeRef(left, x)}, {NodeRef(right, x)})")
            if not layer.directed:
                for b in row:
                    rows[b][a] = 1
        return Graph(layer.directed, nodes, rows)
    at = index[relation.kinds[side]]
    held: list[list[set[int]]] = [[] for _ in nodes]  # node -> the groups holding it
    for group in groups:
        members = {at[x] for x in group}
        for i in members:
            held[i].append(members)
    aux = layer is Layer.COAUTHORSHIP and {node: len(ends[0][node.id]) for node in nodes}
    return Graph(False, nodes, (_co_members(i, sets) for i, sets in enumerate(held)), aux=aux)


def _seed_row(corpus: Corpus, layer: Layer, seed: NodeRef, direction: str) -> tuple[str, dict]:
    """The kind of the seed's neighbours in one layer, and their ids with
    link weights, read off the layer's relation: co-members of the groups
    holding the seed, or the far ends of its links (``direction`` picks
    citation arcs; both ways add)."""
    relation, side = _LAYERS[layer]
    ends = _ends(corpus, relation)
    sides = [s for s in (0, 1) if relation.kinds[s] == seed.kind and side in (None, s)]
    if not any(seed.id in ends[s] for s in sides):
        raise ValueError(f"seed node {seed} is not in the graph")
    if side is not None:
        groups = [ends[1 - side][g] for g in ends[side][seed.id]]
        return seed.kind, _co_members(seed.id, groups)
    if layer.directed:
        sides = {"out": [0], "in": [1], "both": [0, 1]}[direction]
    row = Counter()
    for s in sides:
        row.update(ends[s].get(seed.id, ()))
    return relation.kinds[1 - sides[0]], row


def layer_from_token(token: str) -> Layer:
    try:
        return Layer(token)
    except ValueError:
        valid = ", ".join(layer.value for layer in Layer)
        raise ValueError(f"unknown layer {token!r}; valid layers: {valid}") from None
