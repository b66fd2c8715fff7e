"""Construction of every network layer a journal corpus supports.

Every layer is read off one of five relations in the corpus: an author
wrote a paper, a paper carries a PACS code, a paper cites a work or a
journal paper, and an author on record uses a code in any of their
papers.  The bipartite layers and the citation layer hold a relation's
links as they are.  A one-mode layer keeps one side of a relation and
links two of its nodes once per node of the other side they share, as
counted by one pair-count kernel.  :func:`build_layer` builds a whole
layer; :func:`_seed_row` reads one node's row off the same relation.
:func:`project_one_mode` counts the same shared neighbours straight off
the rows of any two-kind graph, such as one read back from Pajek.
"""

from __future__ import annotations

from collections import ChainMap, Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
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

    ``nodes[s](corpus)`` gives every id on side ``s``, linked or not, as
    a mapping whose keys are the ids, so a membership test builds nothing;
    ``ends[s](corpus, x)`` the far end of each link of node ``x`` on side
    ``s``, each far end once however often the records repeat the link.
    """

    kinds: tuple[str, str]
    nodes: tuple[Callable, Callable]
    ends: tuple[Callable, Callable]


def _cited_papers(corpus: Corpus, pid: str) -> set[str]:
    return {r.internal_paper_id for r in corpus.papers[pid].reference_keys} - {None}


_WROTE = _Relation(
    (AUTHOR, PAPER),
    (lambda c: ChainMap(c.authors, c.papers_by_author), lambda c: c.papers),
    (lambda c, a: c.papers_by_author.get(a, ()), lambda c, p: set(c.papers[p].author_ids)),
)
_CARRIES = _Relation(
    (PAPER, PACS),
    (lambda c: c.papers, lambda c: c.papers_by_pacs),
    (lambda c, p: c.papers[p].pacs_codes, lambda c, k: c.papers_by_pacs[k]),
)
_CITES_WORK = _Relation(
    (PAPER, REFERENCE),
    (lambda c: c.papers, lambda c: c.citing_by_key),
    (lambda c, p: {r.key for r in c.papers[p].reference_keys}, lambda c, k: c.citing_by_key[k]),
)
_CITES_PAPER = _Relation(
    (PAPER, PAPER),
    (lambda c: c.papers, lambda c: c.papers),
    (_cited_papers, lambda c, q: c.citing_by_paper.get(q, ())),
)
_USES_CODE = _Relation(
    (AUTHOR, PACS),
    (lambda c: c.authors, lambda c: c.papers_by_pacs),
    (lambda c, a: {k for p in c.papers_by_author.get(a, ()) for k in c.papers[p].pacs_codes},
     lambda c, k: c.authors_by_pacs[k]),
)

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


def _numbered(kind: str, ids: Iterable, start: int = 0) -> tuple[list[NodeRef], dict]:
    """One kind's ids as sorted nodes, and each id's index among them
    counted from ``start``."""
    ids = sorted(ids)
    return [NodeRef(kind, x) for x in ids], {x: i for i, x in enumerate(ids, start)}


def _link_graph(corpus: Corpus, relation: _Relation, directed: bool) -> Graph:
    """A relation's links as a graph of weight-1 links.

    Every node on either side is kept, linked or not, and so is a far end
    that its side does not list.  Nodes are sorted by (kind, id), so each
    kind's ids take one run of indices.  Each left node's row holds its
    far ends; an undirected graph also gets each link written back into
    the far end's row.  A link from a node to itself raises GraphError.
    """
    (left, right), ends = relation.kinds, relation.ends[0]
    far = {x: ends(corpus, x) for x in relation.nodes[0](corpus)}
    ids = {left: set(), right: set()}
    ids[left].update(far)
    ids[right].update(relation.nodes[1](corpus), *far.values())
    nodes, index = [], {}
    for kind in sorted(ids):
        kind_nodes, index[kind] = _numbered(kind, ids[kind], len(nodes))
        nodes += kind_nodes
    rows: list[dict[int, int]] = [{} for _ in nodes]
    at, to = index[left], index[right]
    for x, ys in far.items():
        a = at[x]
        row = rows[a] = {to[y]: 1 for y in ys}
        if a in row:
            raise GraphError(f"self-loop rejected: ({NodeRef(left, x)}, {NodeRef(right, x)})")
        if not directed:
            for b in row:
                rows[b][a] = 1
    return Graph(directed, nodes, rows)


def _co_members(member, groups) -> Counter:
    """How many of ``groups``, each holding ``member`` and no id twice, each other member is in."""
    counts = Counter(chain.from_iterable(groups))
    del counts[member]
    return counts


def _pair_counts(kind: str, ids: Iterable, groups: Iterable[Iterable], aux=None) -> Graph:
    """Undirected graph over ids of one node kind where two nodes link once
    per group holding both; each group counts as a set of ids in ``ids``,
    and ``aux``, if given, maps each id to its node's aux count."""
    nodes, index = _numbered(kind, ids)
    held: list[list[set[int]]] = [[] for _ in nodes]  # node -> the groups holding it
    for group in groups:
        members = {index[x] for x in group}
        for i in members:
            held[i].append(members)
    rows = (_co_members(i, sets) for i, sets in enumerate(held))
    return Graph(False, nodes, rows, aux=aux and {node: aux[node.id] for node in nodes})


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
    if key not in corpus._layers:
        corpus._layers[key] = _build(corpus, *key)
    return corpus._layers[key]


def _build(corpus: Corpus, layer: Layer, internal_only: bool) -> Graph:
    relation, side = _LAYERS[layer]
    if side is None:
        return _link_graph(corpus, relation, layer.directed)
    ids = relation.nodes[side](corpus)
    groups = (relation.ends[1 - side](corpus, g) for g in relation.nodes[1 - side](corpus))
    if internal_only:
        keep = {r.key for p in corpus.papers.values() for r in p.reference_keys
                if r.internal_paper_id is not None}
        ids, groups = ids.keys() & keep, (keep & set(g) for g in groups)
    aux = None
    if layer is Layer.COAUTHORSHIP:
        aux = {a: len(corpus.papers_by_author.get(a, ())) for a in ids}
    return _pair_counts(relation.kinds[side], ids, groups, aux)


def _seed_row(corpus: Corpus, layer: Layer, seed: NodeRef, direction: str) -> tuple[str, dict]:
    """The kind of the seed's neighbours in one layer, and their ids with
    link weights, read off the layer's relation: co-members of the groups
    holding the seed, or the far ends of its links (``direction`` picks
    citation arcs; both ways add)."""
    relation, side = _LAYERS[layer]
    sides = [s for s in (0, 1) if relation.kinds[s] == seed.kind and side in (None, s)]
    if not any(seed.id in relation.nodes[s](corpus) for s in sides):
        raise ValueError(f"seed node {seed} is not in the graph")
    if side is not None:
        groups = [relation.ends[1 - side](corpus, g) for g in relation.ends[side](corpus, seed.id)]
        return seed.kind, _co_members(seed.id, groups)
    if layer.directed:
        sides = {"out": [0], "in": [1], "both": [0, 1]}[direction]
    row = Counter()
    for s in sides:
        row.update(relation.ends[s](corpus, seed.id))
    return relation.kinds[1 - sides[0]], row


def layer_from_token(token: str) -> Layer:
    try:
        return Layer(token)
    except ValueError:
        valid = ", ".join(layer.value for layer in Layer)
        raise ValueError(f"unknown layer {token!r}; valid layers: {valid}") from None
