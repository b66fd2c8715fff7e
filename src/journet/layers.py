"""Construction of every network layer a journal corpus supports.

Every layer is read off one of six relations in the corpus: an author
wrote a paper, a paper carries a PACS code, a paper cites a work (or
only works some paper cites by journal id) or a journal paper, and an
author on record uses a code in any of their papers.  A relation is the
(left id, right id) pairs its records hold, which :func:`_ends` numbers
and indexes both ways once per corpus.  One builder, :func:`_build`,
turns that index into any layer: the bipartite layers and the citation
layer hold a relation's links as their rows, and a one-mode layer (a
projection of the two-mode relation) keeps one side of it and links two
of its nodes once per node of the other side they share.  Its graph
holds those groups, shared with the index, and counts a row off them
only when the row is read.  :func:`project_one_mode` takes the groups
off the rows of any two-kind graph, such as one read back from Pajek.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .corpus import Corpus
from .graph import (
    AUTHOR,
    PACS,
    PAPER,
    REFERENCE,
    Graph,
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
    records hold, a link as often as the records repeat it.  :func:`_ends`
    numbers the ids and indexes the pairs both ways; a side's kind says
    which of its ids it holds without a link.
    """

    kinds: tuple[str, str]
    pairs: Callable[[Corpus], Iterable[tuple]]


def _journal_work_citations(c: Corpus) -> Iterable[tuple]:
    """Citations of the works that some paper cites by journal id."""
    cited = {r.key for p in c.papers.values() for r in p.reference_keys
             if r.internal_paper_id is not None}
    return ((p.paper_id, r.key) for p in c.papers.values() for r in p.reference_keys
            if r.key in cited)


_WROTE = _Relation(
    (AUTHOR, PAPER),
    lambda c: ((a, p.paper_id) for p in c.papers.values() for a in p.author_ids),
)
_CARRIES = _Relation(
    (PAPER, PACS),
    lambda c: ((p.paper_id, k) for p in c.papers.values() for k in p.pacs_codes),
)
_CITES_WORK = _Relation(
    (PAPER, REFERENCE),
    lambda c: ((p.paper_id, r.key) for p in c.papers.values() for r in p.reference_keys),
)
_CITES_PAPER = _Relation(
    (PAPER, PAPER),
    lambda c: ((p.paper_id, r.internal_paper_id) for p in c.papers.values()
               for r in p.reference_keys if r.internal_paper_id is not None),
)
_CITES_JOURNAL_WORK = _Relation((PAPER, REFERENCE), _journal_work_citations)
_USES_CODE = _Relation(  # authors on record only
    (AUTHOR, PACS),
    lambda c: ((a, k) for p in c.papers.values() for a in p.author_ids if a in c.authors
               for k in p.pacs_codes),
)


def _ends(corpus: Corpus, relation: _Relation) -> tuple[tuple[list, list], tuple[list, list]]:
    """A relation's links numbered and indexed both ways, as ``(ids, far)``.

    ``ids[s]`` lists every id side ``s`` holds, in ascending order, and id
    ``ids[s][i]`` is number ``i`` of its side.  A side of authors or papers
    holds every one on record, linked or not; a side of codes or works
    holds only the linked ones.  A relation between nodes of one kind
    numbers both sides as one.
    ``far[s][i]`` lists the numbers of that id's far ends, ascending, each
    once however often the records repeat the link.  Built on first call
    and kept in the corpus, like its layers, which share the lists.
    """
    if relation not in corpus._memo:
        on_record = {AUTHOR: corpus.authors, PAPER: corpus.papers}
        left, right = (on_record.get(kind, ()) for kind in relation.kinds)
        ends, held = defaultdict(dict, {x: {} for x in left}), set(right)
        for x, y in relation.pairs(corpus):
            ends[x][y] = None
            held.add(y)
        if relation.kinds[0] == relation.kinds[1]:
            ids = (sorted(ends.keys() | held),) * 2
        else:
            ids = sorted(ends), sorted(held)
        number = dict(zip(ids[1], range(len(ids[1]))))
        far = ([sorted(map(number.__getitem__, ends.get(x, ()))) for x in ids[0]],
               [[] for _ in ids[1]])
        for i, row in enumerate(far[0]):  # i ascends, so each far[1] list does too
            for j in row:
                far[1][j].append(i)
        corpus._memo[relation] = ids, far
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


def project_one_mode(graph: Graph, kind: str) -> Graph:
    """Collapse an undirected two-kind graph onto its ``kind`` nodes.

    Every link must join one ``kind`` node to a node of another kind.
    Two ``kind`` nodes link whenever they share at least one neighbour;
    the weight is the number of shared neighbours.  ``kind`` nodes
    without any shared neighbour stay as isolated nodes.
    """
    if graph.directed:
        raise ValueError("cannot project a directed graph")
    nodes, rows = graph.nodes(), tuple(graph.rows())
    kept = [i for i, node in enumerate(nodes) if node.kind == kind]
    other = [i for i, node in enumerate(nodes) if node.kind != kind]
    new = {i: k for k, i in enumerate(kept)}  # keeps node order, so the nodes stay sorted
    group = {i: g for g, i in enumerate(other)}
    if any((i in new) == (j in new) for i, row in enumerate(rows) for j in row):
        raise ValueError(f"every link must have exactly one {kind} end")
    return Graph(False, [nodes[i] for i in kept], groups=[[new[j] for j in rows[i]] for i in other],
                 held=[[group[j] for j in rows[i]] for i in kept])


def build_layer(corpus: Corpus, layer: Layer, internal_only: bool = False) -> Graph:
    """The named layer of a corpus, built on first call.

    ``internal_only`` restricts the co-citation layer to cited works that
    some paper cites by journal id; other layers ignore the flag.
    Citation arcs point from the citing paper to the cited one.
    Co-authorship carries each author's paper count as aux counts.

    The corpus keeps every layer built from it, with a directed layer's
    both-ways rows once read, for as long as the corpus lives, and a
    later call returns the same graph.  A one-mode layer holds its groups,
    which statistics and neighbourhoods walk through ``hops()``, and never
    its rows (millions of links on a dense 10^4-paper layer): ``rows()``
    and ``row()`` derive them as they are read and keep none.
    The graph is shared, so it must never be mutated.
    """
    internal_only = internal_only and layer is Layer.COCITATION
    if (layer, internal_only) not in corpus._memo:
        relation = _CITES_JOURNAL_WORK if internal_only else _LAYERS[layer][0]
        corpus._memo[layer, internal_only] = _build(corpus, layer, relation)
    return corpus._memo[layer, internal_only]


def _build(corpus: Corpus, layer: Layer, relation: _Relation) -> Graph:
    """A layer read off the :func:`_ends` index of ``relation``.

    The nodes are the ids of every side the layer keeps, linked or not,
    sorted by (kind, id), so each kind's ids take one run of indices.  A
    link layer writes each side's far ends as that side's rows at weight
    1, or only the left side's as out-rows if the layer is directed
    (``Graph`` refuses a link from a node to itself).  A one-mode layer's
    graph holds the far ends of each other-side id as a group, and the
    far ends of each of its own ids as the groups holding it.
    Co-authorship counts each author's papers as aux.
    """
    side, kinds = _LAYERS[layer][1], relation.kinds
    ids, far = _ends(corpus, relation)
    if side is not None:
        nodes = [NodeRef(kinds[side], x) for x in ids[side]]
        aux = layer is Layer.COAUTHORSHIP and {node: len(ends) for node, ends in zip(nodes, far[0])}
        return Graph(False, nodes, aux=aux, groups=far[1 - side], held=far[side])
    if layer.directed:  # one kind, numbered once
        sides, start = (0,), (0, 0)
    else:
        sides = sorted((0, 1), key=kinds.__getitem__)
        start = [0, 0]
        start[sides[1]] = len(ids[sides[0]])
    nodes = [NodeRef(kinds[s], x) for s in sides for x in ids[s]]
    rows = [{start[1 - s] + j: 1 for j in ends} for s in sides for ends in far[s]]
    return Graph(layer.directed, nodes, rows)


def layer_from_token(token: str) -> Layer:
    try:
        return Layer(token)
    except ValueError:
        valid = ", ".join(layer.value for layer in Layer)
        raise ValueError(f"unknown layer {token!r}; valid layers: {valid}") from None
