import dataclasses
import random
from itertools import combinations

import pytest

from journet import graph as graph_module
from journet.cli import main
from journet.communities import canonical_partition, edge_betweenness, girvan_newman, modularity
from journet.corpus import Corpus, load_corpus, persist_corpus, snapshot, validate_corpus
from journet.graph import (
    Graph,
    GraphError,
    NodeRef,
    adjacency_rows,
    author_node,
    build_graph,
    paper_node,
    pacs_node,
    reference_node,
)
from journet.layers import (
    _LAYERS,
    Layer,
    _ends,
    _Relation,
    build_layer,
    layer_from_token,
    project_one_mode,
)
from journet.metrics import (
    EVOLUTION_METRICS,
    clustering,
    connected_components,
    degree_stats,
    evolution_series,
    metrics_report,
)
from journet.pajek import export_pajek, parse_pajek
from journet.reports import adjacency_report_csv, degree_distribution_csv
from journet.retrieval import DIRECTIONS, layer_overlap, neighborhood, related_rank

from conftest import make_authors, make_paper, random_corpus
from oracles import brute_projection
from test_corpus import ingest
from test_graph import assert_rows_ascending
from test_retrieval import messy_corpus


def small_corpus():
    papers = [
        make_paper("v1n1p1", [1, 2], pacs={"05.50.+q"}, refs=["x", "y"]),
        make_paper("v1n1p2", [2, 3], refs=["y", "z"]),
    ]
    return Corpus(papers, make_authors([1, 2, 3]))


def test_bipartite_author_paper_links():
    g = build_layer(small_corpus(), Layer.BIPARTITE_AUTHOR_PAPER)
    # each link once, author end first: every link joins an author to a paper
    assert list(g.links()) == [(author_node(1), paper_node("v1n1p1"), 1),
                               (author_node(2), paper_node("v1n1p1"), 1),
                               (author_node(2), paper_node("v1n1p2"), 1),
                               (author_node(3), paper_node("v1n1p2"), 1)]


def test_bipartite_paper_without_codes_is_isolated():
    g = build_layer(small_corpus(), Layer.BIPARTITE_PAPER_PACS)
    assert g.row(paper_node("v1n1p2")) == {}
    assert g.row(paper_node("v1n1p1")) == {pacs_node("05.50.+q"): 1}


def test_bipartite_links_match_record_scan():
    corpus = random_corpus(random.Random(21))
    g = build_layer(corpus, Layer.BIPARTITE_PAPER_REFERENCE)
    expected = set()
    for pid, p in corpus.papers.items():
        for ref in p.reference_keys:
            expected.add((paper_node(pid), reference_node(ref.key)))
    actual = set()
    for u, v, w in g.links():
        assert w == 1
        actual.add((u, v) if u.kind == "paper" else (v, u))
    assert actual == expected


def test_projection_schematic_case():
    papers = [
        make_paper("v1n1p1", [1, 2]),
        make_paper("v1n1p2", [2, 3]),
    ]
    corpus = Corpus(papers, make_authors([1, 2, 3]))
    g = build_layer(corpus, Layer.COAUTHORSHIP)
    assert g.row(author_node(1))[author_node(2)] == 1
    assert g.row(author_node(2))[author_node(3)] == 1
    assert author_node(3) not in g.row(author_node(1))


def test_projection_weight_counts_shared_nodes():
    papers = [
        make_paper("v1n1p1", [1, 2]),
        make_paper("v1n1p2", [1, 2]),
    ]
    corpus = Corpus(papers, make_authors([1, 2]))
    g = build_layer(corpus, Layer.PAPER_COMMON_AUTHOR)
    assert g.row(paper_node("v1n1p1"))[paper_node("v1n1p2")] == 2


def random_bipartite(rng, n_left, n_right, p):
    links = []
    lefts = [author_node(i) for i in range(1, n_left + 1)]
    rights = [paper_node(f"v1n1p{j}") for j in range(1, n_right + 1)]
    for u in lefts:
        for v in rights:
            if rng.random() < p:
                links.append((u, v, 1))
    return build_graph(False, links, isolated_nodes=lefts + rights)


@pytest.mark.parametrize("seed", range(20))
def test_projection_matches_brute_force(seed):
    rng = random.Random(seed)
    bip = random_bipartite(rng, rng.randint(1, 20), rng.randint(1, 20), 0.2)
    for kind in ("author", "paper"):
        nodes = [n for n in bip.nodes() if n.kind == kind]
        counterparts = {u: set(bip.row(u)) for u in nodes}
        expected = brute_projection(nodes, counterparts)
        g = project_one_mode(bip, kind)
        actual = {(u, v): w for u, v, w in g.links()}
        assert actual == expected
        assert sorted(g.nodes()) == sorted(nodes)
        assert_rows_ascending(g)


@pytest.mark.parametrize(
    "layer, kind, message",
    [
        (Layer.COAUTHORSHIP, "author", "exactly one author end"),
        (Layer.PAPER_CITATION, "paper", "directed"),
        (Layer.BIPARTITE_AUTHOR_PAPER, "pacs", "exactly one pacs end"),
    ],
    ids=["same-kind-link", "directed", "kind-on-no-link"],
)
def test_projection_rejects_graph_without_one_kind_end_per_link(layer, kind, message):
    g = build_layer(random_corpus(random.Random(5)), layer)
    assert g.link_count > 0
    with pytest.raises(ValueError, match=message):
        project_one_mode(g, kind)


PAJEK_PROJECTIONS = [
    (Layer.BIPARTITE_AUTHOR_PAPER, "author", Layer.COAUTHORSHIP),
    (Layer.BIPARTITE_AUTHOR_PAPER, "paper", Layer.PAPER_COMMON_AUTHOR),
    (Layer.BIPARTITE_PAPER_REFERENCE, "paper", Layer.COUPLING),
    (Layer.BIPARTITE_PAPER_REFERENCE, "reference", Layer.COCITATION),
]


@pytest.mark.parametrize(
    "bipartite, kind, layer", PAJEK_PROJECTIONS, ids=lambda x: getattr(x, "value", x)
)
@pytest.mark.parametrize("seed", range(3))
def test_projection_of_graph_read_back_from_pajek(bipartite, kind, layer, seed):
    # Node kinds come back by id shape ("auto"): these corpora's work keys
    # ("external work 3", "journal item v1n1p2") never look like other ids.
    corpus = random_corpus(random.Random(300 + seed))
    read_back = parse_pajek(export_pajek(build_layer(corpus, bipartite)))
    projected = project_one_mode(read_back, kind)
    assert projected == build_layer(corpus, layer)
    assert_rows_ascending(projected)


def test_citation_layer_arcs_point_citer_to_cited(triple_relation_corpus):
    g = build_layer(triple_relation_corpus, Layer.PAPER_CITATION)
    assert g.directed
    assert paper_node("v4n2p17") in g.row(paper_node("v4n4p14"))
    assert paper_node("v4n4p14") not in g.row(paper_node("v4n2p17"))
    assert g.node_count == 4  # isolated papers stay


def test_cocitation_clique_from_one_reference_list():
    papers = [make_paper("v1n1p1", [1], refs=["x", "y", "z"])]
    corpus = Corpus(papers, make_authors([1]))
    g = build_layer(corpus, Layer.COCITATION)
    for a, b in combinations(["x", "y", "z"], 2):
        assert g.row(reference_node(a))[reference_node(b)] == 1


def test_coupling_shared_reference():
    papers = [
        make_paper("v1n1p1", [1], refs=["x", "y"]),
        make_paper("v1n1p2", [2], refs=["y", "z"]),
    ]
    corpus = Corpus(papers, make_authors([1, 2]))
    g = build_layer(corpus, Layer.COUPLING)
    assert g.row(paper_node("v1n1p1"))[paper_node("v1n1p2")] == 1


def test_cocitation_internal_only_flag(triple_relation_corpus):
    full = build_layer(triple_relation_corpus, Layer.COCITATION)
    internal = build_layer(triple_relation_corpus, Layer.COCITATION, internal_only=True)
    assert reference_node("smith 1990") in full.nodes()
    assert internal.nodes() == [reference_node("petrenko 2001")]


def test_author_common_pacs_composes_through_papers():
    papers = [
        make_paper("v1n1p1", [1], pacs={"05.50.+q"}),
        make_paper("v1n2p1", [2], pacs={"05.50.+q", "64.60.Cn"}),
        make_paper("v2n1p1", [3], pacs={"75.10.-b"}),
    ]
    corpus = Corpus(papers, make_authors([1, 2, 3]))
    g = build_layer(corpus, Layer.AUTHOR_COMMON_PACS)
    assert g.row(author_node(1))[author_node(2)] == 1
    assert author_node(3) not in g.row(author_node(1))


def test_triple_relation_pattern(triple_relation_corpus):
    seed = paper_node("v4n4p14")
    other = paper_node("v4n2p17")
    common_author = build_layer(triple_relation_corpus, Layer.PAPER_COMMON_AUTHOR)
    citation = build_layer(triple_relation_corpus, Layer.PAPER_CITATION)
    common_pacs = build_layer(triple_relation_corpus, Layer.PAPER_COMMON_PACS)
    assert other in common_author.row(seed)
    assert other in citation.row(seed)
    assert other in common_pacs.row(seed)


def test_projection_agrees_with_raw_records():
    corpus = random_corpus(random.Random(31))
    g = build_layer(corpus, Layer.COAUTHORSHIP)
    for u, v, w in g.links():
        shared = [p for p in corpus.papers.values() if {u.id, v.id} <= set(p.author_ids)]
        assert w == len(shared) and w >= 1


@pytest.mark.parametrize("seed", range(10))
def test_coupling_cocitation_duality(seed):
    corpus = random_corpus(random.Random(100 + seed))
    bip = build_layer(corpus, Layer.BIPARTITE_PAPER_REFERENCE)
    assert build_layer(corpus, Layer.COUPLING) == project_one_mode(bip, "paper")
    assert build_layer(corpus, Layer.COCITATION) == project_one_mode(bip, "reference")


def test_layers_are_loop_free_and_symmetric():
    corpus = random_corpus(random.Random(55))
    for layer in Layer:
        g = build_layer(corpus, layer)
        for u, v, _ in g.links():
            assert u != v
            if not g.directed:
                assert g.row(v)[u] == g.row(u)[v]


def test_build_layer_deterministic():
    corpus = random_corpus(random.Random(8))
    for layer in Layer:
        assert build_layer(corpus, layer) == build_layer(corpus, layer)


def test_coauthorship_aux_counts_papers():
    corpus = small_corpus()
    g = build_layer(corpus, Layer.COAUTHORSHIP)
    aux = g.aux_counts
    assert aux[author_node(2)] == 2
    assert aux[author_node(1)] == 1


def test_layer_tokens_round_trip():
    for layer in Layer:
        assert layer_from_token(layer.value) is layer
    with pytest.raises(ValueError, match="valid layers"):
        layer_from_token("friendship")


def record_counterparts(corpus):
    """For each one-mode layer, its nodes and each node's counterparts,
    read straight off the paper records."""
    papers = corpus.papers
    keys = {pid: {r.key for r in p.reference_keys} for pid, p in papers.items()}
    authors = set(corpus.authors) | {a for p in papers.values() for a in p.author_ids}
    works = set().union(*keys.values())
    return {
        Layer.COAUTHORSHIP: {
            author_node(a): {pid for pid, p in papers.items() if a in p.author_ids} for a in authors
        },
        Layer.PAPER_COMMON_AUTHOR: {paper_node(pid): set(p.author_ids) for pid, p in papers.items()},
        Layer.PAPER_COMMON_PACS: {paper_node(pid): set(p.pacs_codes) for pid, p in papers.items()},
        Layer.COUPLING: {paper_node(pid): keys[pid] for pid in papers},
        Layer.COCITATION: {
            reference_node(k): {pid for pid in papers if k in keys[pid]} for k in works
        },
        Layer.AUTHOR_COMMON_PACS: {
            author_node(a): {c for p in papers.values() if a in p.author_ids for c in p.pacs_codes}
            for a in corpus.authors
        },
    }


ONE_MODE = sorted(
    (layer for layer in Layer if len(layer.node_kinds) == 1 and not layer.directed),
    key=lambda layer: layer.value,
)


@pytest.mark.parametrize("layer", ONE_MODE, ids=lambda layer: layer.value)
@pytest.mark.parametrize("seed", range(6))
def test_one_mode_layer_matches_record_oracle(layer, seed):
    corpus = random_corpus(random.Random(700 + seed))
    counterparts = record_counterparts(corpus)[layer]
    g = build_layer(corpus, layer)
    assert {(u, v): w for u, v, w in g.links()} == brute_projection(counterparts, counterparts)
    assert g.nodes() == sorted(counterparts)


@pytest.mark.parametrize("seed", [*range(6), "messy"])
def test_internal_cocitation_matches_record_oracle(seed):
    corpus = messy_corpus() if seed == "messy" else random_corpus(random.Random(700 + seed))
    internal = {r.key for p in corpus.papers.values() for r in p.reference_keys
                if r.internal_paper_id is not None}
    counterparts = {node: papers for node, papers
                    in record_counterparts(corpus)[Layer.COCITATION].items() if node.id in internal}
    g = build_layer(corpus, Layer.COCITATION, internal_only=True)
    assert {(u, v): w for u, v, w in g.links()} == brute_projection(counterparts, counterparts)
    assert g.nodes() == sorted(counterparts)
    assert g.link_count and g.node_count < build_layer(corpus, Layer.COCITATION).node_count
    assert_rows_ascending(g)


def test_author_listed_twice_counts_one_shared_paper():
    # Corpus() accepts a repeated author; validate_corpus only reports it.
    papers = [
        make_paper("v1n1p1", [1, 2, 1], pacs={"05.50.+q"}),
        make_paper("v1n1p2", [1, 3], pacs={"05.50.+q"}),
        make_paper("v1n2p1", [2, 3, 3]),
    ]
    corpus = Corpus(papers, make_authors([1, 2, 3]))
    bipartite = build_layer(corpus, Layer.BIPARTITE_AUTHOR_PAPER)
    expected = {
        Layer.COAUTHORSHIP: (project_one_mode(bipartite, "author"), {(1, 2): 1, (1, 3): 1, (2, 3): 1}),
        Layer.PAPER_COMMON_AUTHOR: (
            project_one_mode(bipartite, "paper"),
            {("v1n1p1", "v1n1p2"): 1, ("v1n1p1", "v1n2p1"): 1, ("v1n1p2", "v1n2p1"): 1},
        ),
    }
    for layer, (projected, weights) in expected.items():
        g = build_layer(corpus, layer)
        assert g == projected
        assert {(u.id, v.id): w for u, v, w in g.links()} == weights
        counterparts = record_counterparts(corpus)[layer]
        assert {(u, v): w for u, v, w in g.links()} == brute_projection(counterparts, counterparts)
    pacs = build_layer(corpus, Layer.AUTHOR_COMMON_PACS)
    assert {(u.id, v.id): w for u, v, w in pacs.links()} == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_repeated_author_counts_once_in_indexes_links_and_aux():
    # Corpus() accepts a repeated author and an author without a record.
    papers = [make_paper("v1n1p1", [10, 10, 11]), make_paper("v1n1p2", [10, 12])]
    corpus = Corpus(papers, make_authors([10, 11]))
    wrote = _LAYERS[Layer.COAUTHORSHIP][0]
    assert _ends(corpus, wrote) == (([10, 11, 12], ["v1n1p1", "v1n1p2"]),
                                    ([[0, 1], [0], [1]], [[0, 1], [0, 2]]))
    g = build_layer(corpus, Layer.COAUTHORSHIP)
    assert {node.id: count for node, count in g.aux_counts.items()} == {10: 2, 11: 1, 12: 1}
    assert [(row.node.id, row.aux_count) for row in adjacency_rows(g)] == [(10, 2), (11, 1), (12, 1)]
    bipartite = build_layer(corpus, Layer.BIPARTITE_AUTHOR_PAPER)
    assert {w for _, _, w in bipartite.links()} == {1}
    ranked = related_rank(corpus, paper_node("v1n1p1"),
                          (Layer.BIPARTITE_AUTHOR_PAPER, Layer.PAPER_COMMON_AUTHOR))
    assert [(item.node, item.weight_sum) for item in ranked] == [
        (author_node(10), 1), (author_node(11), 1), (paper_node("v1n1p2"), 1)]


LINK_LAYERS = [layer for layer in Layer if _LAYERS[layer][1] is None]


def relation_scan(corpus):
    """Each relation's links, as a set of (left id, right id) pairs, and
    the ids each side lists with or without a link, read off the records
    and keyed by the relation's two node kinds."""
    papers, authors, pids = corpus.papers.values(), set(corpus.authors), set(corpus.papers)
    return {
        ("author", "paper"): ({(a, p.paper_id) for p in papers for a in p.author_ids}, authors, pids),
        ("paper", "pacs"): ({(p.paper_id, k) for p in papers for k in p.pacs_codes}, pids, set()),
        ("paper", "reference"): (
            {(p.paper_id, r.key) for p in papers for r in p.reference_keys}, pids, set()),
        ("paper", "paper"): ({(p.paper_id, r.internal_paper_id) for p in papers
                              for r in p.reference_keys if r.internal_paper_id is not None},
                             pids, pids),
        ("author", "pacs"): ({(a, k) for p in papers for a in p.author_ids if a in authors
                              for k in p.pacs_codes}, authors, set()),
    }


LINK_KINDS = {
    Layer.PAPER_CITATION: ("paper", "paper"),
    Layer.BIPARTITE_AUTHOR_PAPER: ("author", "paper"),
    Layer.BIPARTITE_PAPER_PACS: ("paper", "pacs"),
    Layer.BIPARTITE_PAPER_REFERENCE: ("paper", "reference"),
}


def noderef_link_graph(corpus, layer):
    """A link layer as it was built before integer rows: one weight-1
    NodeRef link per linked pair of the records, aggregated by build_graph."""
    left, right = LINK_KINDS[layer]
    links, lefts, rights = relation_scan(corpus)[left, right]
    nodes = [NodeRef(left, x) for x in lefts] + [NodeRef(right, y) for y in rights]
    links = [(NodeRef(left, x), NodeRef(right, y), 1) for x, y in links]
    return build_graph(layer.directed, links, isolated_nodes=nodes)


def authorless_corpus():
    """A random journal with one paper stripped of its authors, so that
    the author-paper layer has an isolated paper."""
    corpus = random_corpus(random.Random(64))
    papers = [corpus.papers[pid] for pid in sorted(corpus.papers)]
    papers[2] = dataclasses.replace(papers[2], author_ids=())
    return Corpus(papers, corpus.authors.values())


def repeated_key_corpus():
    """A random journal where one paper lists a cited journal paper twice
    under one key, as a copied reference does."""
    corpus = random_corpus(random.Random(65))
    papers = [corpus.papers[pid] for pid in sorted(corpus.papers)]
    i, ref = next((i, r) for i, p in enumerate(papers) for r in p.reference_keys
                  if r.internal_paper_id is not None)
    papers[i] = dataclasses.replace(papers[i], reference_keys=papers[i].reference_keys + (ref,))
    return Corpus(papers, corpus.authors.values())


def named_corpus(corpus_id):
    """A test journal by name: "random-<seed>", "messy", "authorless" or "repeated-key"."""
    named = {"messy": messy_corpus, "authorless": authorless_corpus,
             "repeated-key": repeated_key_corpus}
    if corpus_id in named:
        return named[corpus_id]()
    return random_corpus(random.Random(int(corpus_id.split("-")[1])))


@pytest.mark.parametrize("corpus_id", ["random-61", "random-62", "random-63", "messy", "authorless",
                                       "repeated-key"])
@pytest.mark.parametrize("layer", LINK_LAYERS, ids=lambda layer: layer.value)
def test_link_layer_matches_noderef_route(layer, corpus_id):
    corpus = named_corpus(corpus_id)
    g = build_layer(corpus, layer)
    expected = noderef_link_graph(corpus, layer)
    assert g == expected
    assert tuple(g.rows("in")) == tuple(expected.rows("in"))
    assert g.symmetrized() == expected.symmetrized()
    assert_rows_ascending(g)


def indexed(corpus):
    """The relations whose index the corpus holds."""
    return [key for key in corpus._memo if isinstance(key, _Relation)]


@pytest.mark.parametrize("corpus_id", ["random-71", "random-72", "random-73", "messy", "authorless",
                                       "repeated-key"])
def test_relation_ends_list_each_far_end_once(corpus_id, tmp_path):
    corpus = named_corpus(corpus_id)
    assert indexed(corpus) == []
    assert_ends_match_scan(corpus)

    # ingest, load and snapshot index nothing; a layer indexes its own relation only
    made = [ingest(tmp_path)]
    if validate_corpus(corpus).ok:
        persist_corpus(corpus, tmp_path / "c.corpus")
        made.append(load_corpus(tmp_path / "c.corpus"))
        made += [snapshot(corpus, as_of) for as_of in corpus.time_indexes()]
    for c in made:
        assert indexed(c) == []
        assert_ends_match_scan(c)
    fresh = Corpus(corpus.papers.values(), corpus.authors.values())
    build_layer(fresh, Layer.COAUTHORSHIP)
    assert indexed(fresh) == [_LAYERS[Layer.COAUTHORSHIP][0]]


def assert_ends_match_scan(corpus):
    """Every relation's numbered index against a scan of the records: each
    side's ids ascending, every id the side lists or links (one numbering
    for a relation within one kind), each far end once and ascending, and
    the two sides inverse to each other; built once and then kept."""
    relations = list(dict.fromkeys(relation for relation, _ in _LAYERS.values()))
    scan = relation_scan(corpus)
    assert sorted(relation.kinds for relation in relations) == sorted(scan)
    for relation in relations:
        links, *listed = scan[relation.kinds]
        index = _ends(corpus, relation)
        assert _ends(corpus, relation) is index
        ids, far = index
        held = [listed[s] | {link[s] for link in links} for s in (0, 1)]
        if relation.kinds[0] == relation.kinds[1]:
            held = [held[0] | held[1]] * 2
        for side in (0, 1):
            assert ids[side] == sorted(held[side]), (relation.kinds, side)
            assert len(far[side]) == len(ids[side])
            for ends in far[side]:
                assert ends == sorted(set(ends)), (relation.kinds, side)
        forward = [(i, j) for i, ends in enumerate(far[0]) for j in ends]
        assert sorted((i, j) for j, ends in enumerate(far[1]) for i in ends) == forward
        assert {(ids[0][i], ids[1][j]) for i, j in forward} == links
    assert indexed(corpus) == relations


def test_messy_citation_layer_keeps_the_dangling_target():
    g = build_layer(messy_corpus(), Layer.PAPER_CITATION)
    lost = paper_node("v9n9p9")
    assert g.has_node(lost) and g.row(lost) == {} and len(g.row(lost, "in")) == 1


def test_self_citing_paper_is_rejected_on_citation_layer():
    corpus = Corpus([make_paper("v1n1p1", [1], refs=[("own work", "v1n1p1")])], make_authors([1]))
    with pytest.raises(GraphError, match="self-loop"):
        build_layer(corpus, Layer.PAPER_CITATION)


def fresh(corpus):
    """A new corpus over the same records, holding no layer yet."""
    return Corpus(corpus.papers.values(), corpus.authors.values(), corpus.affiliations.values())


def assert_same_layer(g, expected):
    assert g == expected
    assert tuple(g.rows("in")) == tuple(expected.rows("in"))
    assert g.symmetrized() == expected.symmetrized()
    assert g.aux_counts == expected.aux_counts
    assert_rows_ascending(g)


@pytest.mark.parametrize("seed", [81, 82, 83])
@pytest.mark.parametrize("layer", list(Layer), ids=lambda layer: layer.value)
def test_a_corpus_builds_each_layer_once(layer, seed):
    corpus = random_corpus(random.Random(seed))
    g = build_layer(corpus, layer)
    assert build_layer(corpus, layer) is g
    assert g.symmetrized() is g.symmetrized()
    assert_same_layer(g, build_layer(fresh(corpus), layer))
    internal = build_layer(corpus, layer, internal_only=True)
    if layer is Layer.COCITATION:  # the flag's graph is an entry of its own
        assert internal != g
        assert build_layer(corpus, layer, internal_only=True) is internal
        assert build_layer(corpus, layer) is g
        assert_same_layer(internal, build_layer(fresh(corpus), layer, internal_only=True))
    else:  # the flag means nothing here, so the plain graph answers
        assert internal is g


@pytest.mark.parametrize("layer", list(Layer), ids=lambda layer: layer.value)
def test_snapshot_and_reloaded_corpus_build_their_own_layers(layer, tmp_path):
    corpus = random_corpus(random.Random(84))
    g = build_layer(corpus, layer)
    for as_of in corpus.time_indexes()[-2:]:
        snap = snapshot(corpus, as_of)
        built = build_layer(snap, layer)
        assert built is not g and built is build_layer(snap, layer)
        assert_same_layer(built, build_layer(fresh(snap), layer))
    persist_corpus(corpus, tmp_path / "c.corpus")
    loaded = load_corpus(tmp_path / "c.corpus")
    built = build_layer(loaded, layer)
    assert built is not g
    assert_same_layer(built, g)


@pytest.mark.parametrize("seed", [85, 86])
@pytest.mark.parametrize("layer", list(Layer), ids=lambda layer: layer.value)
def test_readers_leave_a_cached_layer_as_built(layer, seed):
    corpus = random_corpus(random.Random(seed))
    g = build_layer(corpus, layer)
    assert g.link_count > 0
    metrics_report(g)
    degree_stats(g)
    clustering(g)
    for node in g.nodes()[:3]:
        for direction in DIRECTIONS:
            neighborhood(g, node, 2, direction=direction)
    edge_betweenness(g.symmetrized())
    girvan_newman(g.symmetrized())
    export_pajek(g)
    adjacency_report_csv(g)
    if len(layer.node_kinds) == 2:  # the bipartite layers
        for kind in layer.node_kinds:
            project_one_mode(g, kind)
    assert build_layer(corpus, layer) is g
    assert_same_layer(g, build_layer(fresh(corpus), layer))


# A one-mode layer holds its groups and derives rows only when read.
ONE_MODE_BUILDS = [*((layer, False) for layer in ONE_MODE), (Layer.COCITATION, True)]


def one_mode_id(build):
    layer, internal_only = build
    return layer.value + ("-internal" if internal_only else "")


def count_row_kernel(monkeypatch) -> list:
    """Patch the graph's pair-count kernel to record the node of each row it derives."""
    calls = []
    kernel = graph_module._co_members

    def counted(member, groups):
        calls.append(member)
        return kernel(member, groups)

    monkeypatch.setattr(graph_module, "_co_members", counted)
    return calls


@pytest.mark.parametrize("seed", [91, 92, 93, 94])
@pytest.mark.parametrize("build", ONE_MODE_BUILDS, ids=one_mode_id)
def test_group_held_layer_reads_like_the_graph_of_its_links(build, seed):
    g = build_layer(random_corpus(random.Random(seed)), *build)
    degrees = [g.degree(node) for node in g.nodes()]  # from bitsets: no row derived yet
    links = g.link_count
    streamed = list(g.rows())
    texts = export_pajek(g), adjacency_report_csv(g), degree_distribution_csv(degree_stats(g))
    rows = tuple(build_graph(False, g.links(), isolated_nodes=g.nodes()).rows())
    eager = Graph(False, g.nodes(), rows, aux=g.aux_counts)  # the adjacency report prints aux
    assert streamed == list(rows) == list(g.rows())
    assert degrees == [len(row) for row in rows] and links * 2 == sum(degrees)
    assert texts == (export_pajek(eager), adjacency_report_csv(eager),
                     degree_distribution_csv(degree_stats(eager)))
    assert g == eager and g.link_count == links
    assert [g.degree(node) for node in g.nodes()] == degrees  # still off the bitsets: no row was kept
    assert_rows_ascending(g)


@pytest.mark.parametrize("build", ONE_MODE_BUILDS, ids=one_mode_id)
def test_writers_derive_each_row_once_and_keep_none(build, monkeypatch):
    g = build_layer(random_corpus(random.Random(95)), *build)
    calls = count_row_kernel(monkeypatch)
    each_row = list(range(g.node_count))
    text = export_pajek(g)
    assert calls == each_row
    report = adjacency_report_csv(g)
    assert calls == 2 * each_row
    tuple(g.rows())  # derives every row again, since neither writer kept one
    assert calls == 3 * each_row
    assert (export_pajek(g), adjacency_report_csv(g)) == (text, report)


def test_adjacency_export_of_the_citation_layer_keeps_no_symmetrized_graph():
    corpus = random_corpus(random.Random(96))
    g = build_layer(corpus, Layer.PAPER_CITATION)
    report, rows = adjacency_report_csv(g), list(adjacency_rows(g))
    assert g.directed and g.link_count > 0
    assert g._symmetrized is None and build_layer(corpus, Layer.PAPER_CITATION) is g
    view = g.symmetrized()  # the rows both readers merged, as the view holds them
    assert [tuple(row) for row in view.rows()] == [tuple(map(g.index, r.neighbours)) for r in rows]
    assert report == adjacency_report_csv(view)


@pytest.mark.parametrize("build", ONE_MODE_BUILDS, ids=one_mode_id)
def test_statistics_and_neighbourhoods_keep_no_rows(build, monkeypatch):
    corpus = random_corpus(random.Random(98))
    g = build_layer(corpus, *build)
    calls = count_row_kernel(monkeypatch)
    metrics_report(g)
    connected_components(g)
    for node in g.nodes():
        neighborhood(g, node, 2)
    for metric in EVOLUTION_METRICS:  # each snapshot's layer too
        evolution_series(corpus, build[0], metric)
    assert calls == [] and g._out is None  # no row derived, so none kept


@pytest.mark.parametrize("build", ONE_MODE_BUILDS, ids=one_mode_id)
def test_communities_statistics_and_projection_keep_no_rows(build, monkeypatch):
    corpus = random_corpus(random.Random(99))
    g = build_layer(corpus, *build)
    assert g.link_count > 0
    girvan_newman(g)
    edge_betweenness(g)
    modularity(g, canonical_partition(connected_components(g)))
    metrics_report(g)
    with pytest.raises(ValueError):  # one kind of node: nothing to project away
        project_one_mode(g, g.nodes()[0].kind)
    calls = count_row_kernel(monkeypatch)
    tuple(g.rows())
    assert calls == list(range(g.node_count))  # no row was kept: each is derived again
    link_layer = build_layer(corpus, Layer.PAPER_CITATION)
    for graph in (g, link_layer):
        with pytest.raises(ValueError, match="'out', 'in' or 'both', got 'sideways'"):
            graph.rows("sideways")


def persisted_random_corpus(tmp_path, seed) -> str:
    path = tmp_path / "c.corpus"
    persist_corpus(random_corpus(random.Random(seed)), path)
    return str(path)


@pytest.mark.parametrize("layer", ONE_MODE, ids=lambda layer: layer.value)
def test_distribution_and_count_evolution_derive_no_rows(layer, monkeypatch, tmp_path):
    corpus = persisted_random_corpus(tmp_path, 96)
    calls = count_row_kernel(monkeypatch)
    out = str(tmp_path / "out.csv")
    assert main(["distribution", "--corpus", corpus, "--layer", layer.value, "--out", out]) == 0
    for metric in ("node_count", "link_count", "mean_degree"):
        argv = ["evolution", "--corpus", corpus, "--layer", layer.value, "--metric", metric]
        assert main([*argv, "--out", out]) == 0
    assert calls == []


@pytest.mark.parametrize("layer", ONE_MODE, ids=lambda layer: layer.value)
def test_pajek_export_from_the_cli_derives_each_row_once(layer, monkeypatch, tmp_path):
    corpus = persisted_random_corpus(tmp_path, 97)
    calls = count_row_kernel(monkeypatch)
    out = tmp_path / "out.net"
    assert main(["export", "--corpus", corpus, "--layer", layer.value, "--format", "pajek",
                 "--out", str(out)]) == 0
    vertices = int(out.read_text(encoding="utf-8").split()[1])
    assert vertices > 0 and calls == list(range(vertices))


@pytest.mark.parametrize("corpus_id", ["random-101", "random-102", "random-103", "messy"])
def test_row_equals_the_kept_row_of_a_second_build(corpus_id):
    built, kept = named_corpus(corpus_id), named_corpus(corpus_id)
    for layer in Layer:
        g, expected = build_layer(built, layer), build_layer(kept, layer)
        nodes = expected.nodes()
        assert g.nodes() == nodes
        for direction in DIRECTIONS:
            for node, row in zip(nodes, expected.rows(direction)):
                assert list(g.row(node, direction).items()) == [(nodes[j], w) for j, w in row.items()]
        if _LAYERS[layer][1] is not None:
            assert g._out is None, layer  # each row was derived and none kept


def test_retrieval_leaves_one_mode_layers_group_held(monkeypatch):
    corpus = random_corpus(random.Random(104))
    layers = [Layer.COUPLING, Layer.PAPER_COMMON_PACS]
    calls = count_row_kernel(monkeypatch)
    for i, pid in enumerate(sorted(corpus.papers)):
        related_rank(corpus, paper_node(pid), layers)
        layer_overlap(corpus, paper_node(pid), layers)
        assert calls[-4:] == [i] * 4  # the seed's row in each layer, each query
    for layer in layers:
        g, expected = build_layer(corpus, layer), tuple(build_layer(fresh(corpus), layer).rows())
        calls.clear()
        assert list(g.rows()) == list(expected)
        assert calls == list(range(g.node_count))  # no row was kept: each is derived again


@pytest.mark.parametrize("layer", ONE_MODE, ids=lambda layer: layer.value)
def test_equality_leaves_one_mode_layers_group_held(layer):
    corpus = random_corpus(random.Random(105))
    g, h = build_layer(corpus, layer), build_layer(fresh(corpus), layer)
    assert g == h and not g != h
    assert g._out is None and h._out is None, layer  # rows were compared, none kept
    other = build_layer(random_corpus(random.Random(106)), layer)
    assert g != other and other._out is None
