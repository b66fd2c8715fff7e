import dataclasses
import random
from itertools import combinations, permutations

import pytest

from journet.corpus import Corpus, ReferenceKey
from journet.graph import NODE_KINDS, author_node, build_graph, paper_node
from journet.layers import Layer, build_layer
from journet.retrieval import DIRECTIONS, RelatedItem, layer_overlap, neighborhood, related_rank

from conftest import make_authors, make_paper, random_corpus, random_graph
from oracles import floyd_warshall

n = author_node

PAPER_LAYERS = [Layer.PAPER_COMMON_AUTHOR, Layer.PAPER_CITATION, Layer.PAPER_COMMON_PACS]


def test_neighborhood_path_depth2():
    g = build_graph(False, [(n(1), n(2), 1), (n(2), n(3), 1), (n(3), n(4), 1)])
    result = neighborhood(g, n(1), 2)
    assert result.members == {n(2): 1, n(3): 2}


def test_neighborhood_depth1_equals_adjacency(quartet_corpus):
    g = build_layer(quartet_corpus, Layer.COAUTHORSHIP)
    result = neighborhood(g, n(3672), 1)
    assert result.members == {n(3671): 1, n(3673): 1, n(3674): 1}
    assert sorted(result.members) == list(g.row(n(3672)))


def test_neighborhood_depth1_equals_adjacency_rows_directed(triple_relation_corpus):
    from journet.graph import adjacency_rows

    g = build_layer(triple_relation_corpus, Layer.PAPER_CITATION)
    rows = {row.node: row for row in adjacency_rows(g)}
    for node in g.nodes():
        ball = neighborhood(g, node, 1)
        assert tuple(sorted(ball.members)) == rows[node].neighbours


def test_neighborhood_rejects_bad_input():
    g = build_graph(False, [(n(1), n(2), 1)])
    with pytest.raises(ValueError, match="author:9"):
        neighborhood(g, n(9), 1)
    with pytest.raises(ValueError, match="depth"):
        neighborhood(g, n(1), 0)
    with pytest.raises(ValueError, match="direction"):
        neighborhood(g, n(1), 1, direction="sideways")


def test_neighborhood_direction_flags():
    p, q = paper_node("v1n1p1"), paper_node("v1n1p2")
    g = build_graph(True, [(p, q, 1)])
    assert neighborhood(g, p, 1, direction="out").members == {q: 1}
    assert neighborhood(g, p, 1, direction="in").members == {}
    assert neighborhood(g, q, 1, direction="both").members == {p: 1}


def test_neighborhood_matches_distance_matrix():
    for seed in range(5):
        g = random_graph(random.Random(400 + seed), 30, 0.1)
        neighbor_sets = {v: set(g.row(v)) for v in g.nodes()}
        dist = floyd_warshall(neighbor_sets)
        for source in list(g.nodes())[:6]:
            for depth in (1, 2, 3):
                result = neighborhood(g, source, depth)
                expected = {
                    t: d for (s, t), d in dist.items()
                    if s == source and t != source and d <= depth
                }
                assert result.members == expected


def test_neighborhood_nesting():
    g = random_graph(random.Random(13), 25, 0.12)
    source = n(1)
    previous: set = set()
    for depth in (1, 2, 3, 4):
        members = set(neighborhood(g, source, depth).members)
        assert previous <= members
        previous = members


def test_overlap_triple_relation(triple_relation_corpus):
    seed = paper_node("v4n4p14")
    result = layer_overlap(triple_relation_corpus, seed, PAPER_LAYERS)
    assert result.common == {paper_node("v4n2p17")}
    for layer in PAPER_LAYERS:
        assert result.common <= result.per_layer[layer]


def test_overlap_empty_when_one_layer_empty(triple_relation_corpus):
    seed = paper_node("v4n3p5")  # no references, so the citation side is empty
    result = layer_overlap(triple_relation_corpus, seed, PAPER_LAYERS)
    assert result.per_layer[Layer.PAPER_CITATION] == frozenset()
    assert result.common == frozenset()


def test_overlap_needs_two_layers_and_matching_kind(triple_relation_corpus):
    seed = paper_node("v4n4p14")
    with pytest.raises(ValueError, match="two distinct layers"):
        layer_overlap(triple_relation_corpus, seed, [Layer.PAPER_CITATION])
    with pytest.raises(ValueError, match="two distinct layers"):
        layer_overlap(triple_relation_corpus, seed,
                      [Layer.PAPER_CITATION, Layer.PAPER_CITATION])
    with pytest.raises(ValueError, match="kind"):
        layer_overlap(triple_relation_corpus, n(201), PAPER_LAYERS)


def test_rank_ignores_repeated_layers(triple_relation_corpus):
    seed = paper_node("v4n4p14")
    base = related_rank(triple_relation_corpus, seed, PAPER_LAYERS)
    doubled = related_rank(triple_relation_corpus, seed, PAPER_LAYERS + PAPER_LAYERS)
    assert doubled == base


def test_overlap_rejects_absent_seed(triple_relation_corpus):
    ghost = paper_node("v9n9p9")
    with pytest.raises(ValueError, match="v9n9p9"):
        layer_overlap(triple_relation_corpus, ghost, PAPER_LAYERS)


def test_overlap_layer_order_irrelevant(triple_relation_corpus):
    seed = paper_node("v4n4p14")
    base = layer_overlap(triple_relation_corpus, seed, PAPER_LAYERS)
    ranked = related_rank(triple_relation_corpus, seed, PAPER_LAYERS)
    for perm in permutations(PAPER_LAYERS):
        assert layer_overlap(triple_relation_corpus, seed, perm).common == base.common
        assert related_rank(triple_relation_corpus, seed, perm) == ranked


def test_overlap_matches_brute_force_intersection():
    corpus = random_corpus(random.Random(23))
    layers = [Layer.PAPER_COMMON_AUTHOR, Layer.PAPER_COMMON_PACS, Layer.COUPLING]
    graphs = {layer: build_layer(corpus, layer) for layer in layers}
    for pid in sorted(corpus.papers)[:8]:
        seed = paper_node(pid)
        result = layer_overlap(corpus, seed, layers)
        expected = set(graphs[layers[0]].row(seed))
        for layer in layers[1:]:
            expected &= set(graphs[layer].row(seed))
        assert result.common == expected


def test_rank_triple_relation_first(triple_relation_corpus):
    seed = paper_node("v4n4p14")
    items = related_rank(triple_relation_corpus, seed, PAPER_LAYERS)
    assert items[0].node == paper_node("v4n2p17")
    assert items[0].layer_count == 3
    others = {it.node.id: it.layer_count for it in items[1:]}
    assert others == {"v4n1p1": 1, "v4n3p5": 1}


def test_rank_layer_count_dominates_weight():
    papers = [
        make_paper("v1n1p1", [1, 2, 3, 4, 5, 6]),       # seed shares 5 authors with p2
        make_paper("v1n1p2", [2, 3, 4, 5, 6]),
        make_paper("v1n1p3", [1], pacs={"05.50.+q"}),
        make_paper("v1n2p1", [1], pacs={"05.50.+q"},
                   refs=[("cited", "v1n1p1")]),
    ]
    # against seed v1n1p1: p2 has weight 5 in one layer; v1n2p1 shares an
    # author and cites it, so two layers at weight 1 each
    corpus = Corpus(papers, make_authors([1, 2, 3, 4, 5, 6]))
    items = related_rank(
        corpus, paper_node("v1n1p1"),
        [Layer.PAPER_COMMON_AUTHOR, Layer.PAPER_CITATION],
    )
    assert [it.node.id for it in items[:2]] == ["v1n2p1", "v1n1p2"]
    assert items[0].layer_count == 2 and items[0].weight_sum == 2
    assert items[1].layer_count == 1 and items[1].weight_sum == 5


def test_rank_matches_brute_force_recomputation():
    corpus = random_corpus(random.Random(29))
    layers = PAPER_LAYERS + [Layer.COUPLING]
    graphs = {layer: build_layer(corpus, layer) for layer in layers}
    for pid in sorted(corpus.papers)[:6]:
        seed = paper_node(pid)
        items = related_rank(corpus, seed, layers)
        expected = {}
        for layer, g in graphs.items():
            nbrs = dict(g.row(seed))
            if g.directed:
                for v, w in g.row(seed, "in").items():
                    nbrs[v] = nbrs.get(v, 0) + w
            for v, w in nbrs.items():
                count, total = expected.get(v, (0, 0))
                expected[v] = (count + 1, total + w)
        assert {it.node: (it.layer_count, it.weight_sum) for it in items} == expected
        keys = [(-it.layer_count, -it.weight_sum, (it.node.kind, it.node.id)) for it in items]
        assert keys == sorted(keys)


def test_rank_order_is_total(triple_relation_corpus):
    items = related_rank(
        triple_relation_corpus, paper_node("v4n4p14"), PAPER_LAYERS
    )
    keys = [(it.layer_count, it.weight_sum, (it.node.kind, it.node.id)) for it in items]
    assert len(set(keys)) == len(keys)


def test_citation_direction_flag(triple_relation_corpus):
    seed = paper_node("v4n2p17")  # cited BY v4n4p14, cites nothing internal
    both = layer_overlap(
        triple_relation_corpus, seed, [Layer.PAPER_CITATION, Layer.PAPER_COMMON_AUTHOR]
    )
    assert paper_node("v4n4p14") in both.per_layer[Layer.PAPER_CITATION]
    out_only = layer_overlap(
        triple_relation_corpus, seed, [Layer.PAPER_CITATION, Layer.PAPER_COMMON_AUTHOR],
        citation_direction="out",
    )
    assert out_only.per_layer[Layer.PAPER_CITATION] == frozenset()


def messy_corpus():
    """A random journal that Corpus() accepts but validate_corpus faults:
    one paper lists an author twice and an author without a record, and
    one cites a journal paper that has no record."""
    corpus = random_corpus(random.Random(99))
    papers = [corpus.papers[pid] for pid in sorted(corpus.papers)]
    papers[3] = dataclasses.replace(
        papers[3], author_ids=papers[3].author_ids + (papers[3].author_ids[0], 555)
    )
    papers[7] = dataclasses.replace(
        papers[7], reference_keys=papers[7].reference_keys + (ReferenceKey("lost", "v9n9p9"),)
    )
    return Corpus(papers, corpus.authors.values())


def built_row(graph, seed, direction):
    """The seed's neighbours and weights, read off a layer's rows."""
    nodes = graph.nodes()
    return {nodes[j]: w for j, w in tuple(graph.rows(direction))[graph.index(seed)].items()}


def named_journal(corpus_id):
    """A test journal by name: "random-<seed>" or "messy"."""
    if corpus_id == "messy":
        return messy_corpus()
    return random_corpus(random.Random(int(corpus_id.split("-")[1])))


@pytest.mark.parametrize("corpus_id", ["random-41", "random-42", "messy"])
def test_seed_rows_equal_built_rows(corpus_id):
    corpus = named_journal(corpus_id)
    # the expected rows come from a second corpus, so retrieval's own layers keep no rows
    graphs = {layer: build_layer(named_journal(corpus_id), layer) for layer in Layer}
    ghost = paper_node("v8n8p8")
    for kind in NODE_KINDS:
        layers = [layer for layer in Layer if kind in layer.node_kinds]
        seeds = sorted({v for layer in layers for v in graphs[layer].nodes() if v.kind == kind})
        combos = [c for r in (2, 3) for c in combinations(layers, r)]
        for combo, direction in [(c, d) for c in combos for d in ("both", "out", "in")]:
            for seed in seeds:
                if not all(graphs[layer].has_node(seed) for layer in combo):
                    with pytest.raises(ValueError, match="is not in the graph"):
                        related_rank(corpus, seed, combo, direction)
                    continue
                rows = {layer: built_row(graphs[layer], seed, direction) for layer in combo}
                totals = {}
                for row in rows.values():
                    for v, w in row.items():
                        count, weight = totals.get(v, (0, 0))
                        totals[v] = (count + 1, weight + w)
                expected = sorted(
                    (RelatedItem(v, c, w) for v, (c, w) in totals.items()),
                    key=lambda it: (-it.layer_count, -it.weight_sum, (it.node.kind, it.node.id)),
                )
                assert related_rank(corpus, seed, combo, direction) == expected
                overlap = layer_overlap(corpus, seed, combo, direction)
                assert overlap.per_layer == {layer: frozenset(rows[layer]) for layer in combo}
                assert overlap.common == frozenset.intersection(*map(frozenset, rows.values()))
            if kind == "paper":
                with pytest.raises(ValueError, match="is not in the graph"):
                    related_rank(corpus, ghost, combo, direction)
                with pytest.raises(ValueError, match="is not in the graph"):
                    layer_overlap(corpus, ghost, combo, direction)


def test_seed_row_finds_an_author_without_a_record():
    corpus = messy_corpus()  # author 555 is on one paper and has no record
    paper = next(p for p in corpus.papers.values() if 555 in p.author_ids)
    ghost = author_node(555)
    assert 555 not in corpus.authors
    coauthors = {author_node(a): 1 for a in paper.author_ids if a != 555}
    assert build_layer(corpus, Layer.COAUTHORSHIP).row(ghost) == coauthors
    overlap = layer_overlap(corpus, ghost, [Layer.COAUTHORSHIP, Layer.BIPARTITE_AUTHOR_PAPER])
    assert overlap.per_layer == {Layer.COAUTHORSHIP: frozenset(coauthors),
                                 Layer.BIPARTITE_AUTHOR_PAPER: frozenset({paper_node(paper.paper_id)})}
    assert related_rank(corpus, ghost, [Layer.COAUTHORSHIP, Layer.BIPARTITE_AUTHOR_PAPER]) == [
        RelatedItem(node, 1, 1) for node in sorted([*coauthors, paper_node(paper.paper_id)])]
    with pytest.raises(ValueError, match="is not in the graph"):  # uses codes on record only
        related_rank(corpus, ghost, [Layer.COAUTHORSHIP, Layer.AUTHOR_COMMON_PACS])


def test_seed_row_of_a_dangling_cited_paper_equals_its_built_row():
    corpus = messy_corpus()  # one paper cites v9n9p9, which has no record
    lost = paper_node("v9n9p9")
    graph = build_layer(messy_corpus(), Layer.PAPER_CITATION)
    assert "v9n9p9" not in corpus.papers and graph.has_node(lost)
    for direction in DIRECTIONS:
        row = build_layer(corpus, Layer.PAPER_CITATION).row(lost, direction)
        assert row == built_row(graph, lost, direction)
        for query in (layer_overlap, related_rank):  # the citation layer is its only layer
            with pytest.raises(ValueError, match="v9n9p9 is not in the graph"):
                query(corpus, lost, [Layer.PAPER_CITATION, Layer.PAPER_COMMON_PACS], direction)
    assert build_layer(corpus, Layer.PAPER_CITATION).row(lost, "in")


@pytest.mark.parametrize("layer", [Layer.COAUTHORSHIP, Layer.BIPARTITE_AUTHOR_PAPER,
                                   Layer.AUTHOR_COMMON_PACS], ids=lambda layer: layer.value)
def test_seed_row_rejects_an_unknown_author(layer):
    corpus = messy_corpus()
    graph = build_layer(corpus, layer)
    assert not graph.has_node(author_node(556))
    with pytest.raises(KeyError):
        graph.row(author_node(556))
    others = [other for other in Layer if "author" in other.node_kinds and other is not layer]
    for query in (layer_overlap, related_rank):
        with pytest.raises(ValueError, match="author:556 is not in the graph"):
            query(corpus, author_node(556), [layer, others[0]])
