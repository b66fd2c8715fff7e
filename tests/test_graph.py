import random

import pytest

from journet.graph import (
    Graph,
    GraphError,
    NodeRef,
    adjacency_rows,
    author_node,
    build_graph,
    paper_node,
)
from journet.layers import Layer, build_layer
from journet.pajek import export_pajek, parse_pajek

from conftest import random_corpus, random_graph
from oracles import dense_edge_aggregation

A, B, C = author_node(1), author_node(2), author_node(3)


def test_basic_degrees():
    g = build_graph(False, [(A, B, 1), (B, C, 1)])
    assert g.degree(A) == 1 and g.degree(B) == 2 and g.degree(C) == 1
    assert g.link_count == 2
    assert g.nodes() == [A, B, C]


def test_duplicate_links_aggregate():
    g = build_graph(False, [(A, B, 1), (A, B, 2)])
    assert g.link_count == 1
    assert g.row(A)[B] == 3
    # order of endpoints does not matter for undirected aggregation
    g2 = build_graph(False, [(A, B, 1), (B, A, 2)])
    assert g == g2


def test_self_loop_rejected():
    with pytest.raises(GraphError, match=r"^self-loop rejected: \(author:1, author:1\)$"):
        build_graph(False, [(A, A, 1)])
    for directed in (False, True):  # the constructor itself refuses a row holding its own node
        with pytest.raises(GraphError, match=r"^self-loop rejected: \(author:2, author:2\)$"):
            Graph(directed, [A, B], [{1: 1}, {0: 1, 1: 2}])
    # build_graph judges weights as it reads the links; a self-loop is the graph's to refuse
    with pytest.raises(GraphError, match="weight"):
        build_graph(True, [(A, A, 1), (A, B, 0)])


def test_bad_weight_rejected():
    with pytest.raises(GraphError, match="weight"):
        build_graph(False, [(A, B, 0)])
    with pytest.raises(GraphError, match="weight"):
        build_graph(False, [(A, B, 1.5)])


def test_isolated_nodes_kept():
    g = build_graph(False, [(A, B, 1)], isolated_nodes=[C])
    assert g.has_node(C)
    assert g.row(C) == {}


def test_node_kind_id_type_checked():
    with pytest.raises(GraphError):
        NodeRef("author", "17")
    with pytest.raises(GraphError):
        NodeRef("paper", 17)
    with pytest.raises(GraphError):
        NodeRef("city", "x")


def test_directed_arcs_and_symmetrize():
    p, q = paper_node("v1n1p1"), paper_node("v1n1p2")
    g = build_graph(True, [(p, q, 1), (q, p, 2)])
    assert g.link_count == 2
    assert list(g.row(p)) == [q]
    assert list(g.row(p, "in")) == [q]
    assert g.degree(p) == 2
    sym = g.symmetrized()
    assert not sym.directed
    assert sym.row(p)[q] == 3
    assert sym.link_count == 1


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, 20, 0.2)
        assert sum(g.degree(v) for v in g.nodes()) == 2 * g.link_count


def test_random_aggregation_matches_dense_oracle():
    rng = random.Random(42)
    nodes = [author_node(i) for i in range(1, 21)]
    links = [
        (rng.choice(nodes), rng.choice(nodes), rng.randint(1, 4)) for _ in range(100)
    ]
    links = [(u, v, w) for u, v, w in links if u != v]
    g = build_graph(False, links)
    expected = dense_edge_aggregation(links, directed=False)
    actual = {(u, v): w for u, v, w in g.links()}
    assert actual == expected


def test_links_order_insensitive():
    rng = random.Random(3)
    nodes = [author_node(i) for i in range(1, 11)]
    links = [
        (u, v, 1 + (i % 3))
        for i, (u, v) in enumerate((a, b) for a in nodes for b in nodes if a < b)
    ]
    shuffled = links[:]
    rng.shuffle(shuffled)
    assert build_graph(False, links) == build_graph(False, shuffled)


def test_adjacency_rows_coauthor_quartet(quartet_corpus):
    from journet.layers import Layer, build_layer

    g = build_layer(quartet_corpus, Layer.COAUTHORSHIP)
    rows = {row.node.id: row for row in adjacency_rows(g)}
    row = rows[3672]
    assert [n.id for n in row.neighbours] == [3671, 3673, 3674]
    assert row.degree == 3
    assert row.aux_count == 1


def test_adjacency_rows_isolated_node():
    g = build_graph(False, [], isolated_nodes=[A])
    (row,) = adjacency_rows(g)
    assert row.neighbours == () and row.degree == 0 and row.aux_count == 0


def test_adjacency_rows_directed_union():
    p, q, r = paper_node("v1n1p1"), paper_node("v1n1p2"), paper_node("v1n1p3")
    g = build_graph(True, [(p, q, 1), (r, p, 1)])
    rows = {row.node.id: row for row in adjacency_rows(g)}
    assert [n.id for n in rows["v1n1p1"].neighbours] == ["v1n1p2", "v1n1p3"]
    assert rows["v1n1p1"].degree == 2


def test_adjacency_rows_degree_matches_scan():
    rng = random.Random(11)
    g = random_graph(rng, 15, 0.3)
    raw = {(u, v) for u, v, _ in g.links()}
    for row in adjacency_rows(g):
        count = sum(1 for u, v in raw if row.node in (u, v))
        assert row.degree == count
        assert list(row.neighbours) == sorted(row.neighbours)


def assert_rows_ascending(g):
    # Pajek bytes and BFS visit order follow row order, which == on graphs ignores
    for direction in ("out", "in", "both"):
        for row in g.rows(direction):
            assert list(row) == sorted(row), direction


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("layer", list(Layer), ids=lambda layer: layer.value)
def test_layer_rows_stay_ascending(layer, seed):
    corpus = random_corpus(random.Random(seed), volumes=3, papers_per_issue=5, author_pool=15)
    assert_rows_ascending(build_layer(corpus, layer))


@pytest.mark.parametrize("directed", [False, True])
def test_rows_from_shuffled_links_stay_ascending(directed):
    rng = random.Random(17)
    nodes = [author_node(i) for i in range(1, 31)] + [paper_node(f"v1n1p{i}") for i in range(1, 11)]
    pairs = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.15]
    links = [(u, v, rng.randint(1, 3)) for u, v in pairs]
    for _ in range(5):
        rng.shuffle(links)
        isolated = rng.sample(nodes, len(nodes))
        assert_rows_ascending(build_graph(directed, links, isolated_nodes=isolated))


def test_parsed_pajek_rows_stay_ascending():
    rng = random.Random(23)
    for directed in (False, True):
        links = [(author_node(rng.randint(1, 40)), author_node(rng.randint(1, 40)), 1)
                 for _ in range(120)]
        g = build_graph(directed, [(u, v, w) for u, v, w in links if u != v])
        assert_rows_ascending(parse_pajek(export_pajek(g)))


def shuffled_rows(rng, rows):
    given = []
    for row in rows:
        items = list(row.items())
        rng.shuffle(items)
        given.append(dict(items))
    assert any(list(row) != sorted(row) for row in given)
    return given


@pytest.mark.parametrize("seed", range(3))
def test_constructor_sorts_rows_and_derives_in_rows(seed):
    rng = random.Random(60 + seed)
    nodes = [author_node(i) for i in range(1, 26)]
    arcs = [{j: rng.randint(1, 3) for j in range(len(nodes)) if j != i and rng.random() < 0.25}
            for i in range(len(nodes))]
    transpose = [{} for _ in nodes]
    edges = [{} for _ in nodes]
    for i, row in enumerate(arcs):
        for j, w in row.items():
            transpose[j][i] = w
            edges[i][j] = edges[j][i] = w
    directed = Graph(True, nodes, iter(shuffled_rows(rng, arcs)))
    assert list(directed.rows("out")) == arcs
    assert list(directed.rows("in")) == transpose
    assert_rows_ascending(directed)
    undirected = Graph(False, nodes, shuffled_rows(rng, edges))
    assert list(undirected.rows()) == edges
    assert_rows_ascending(undirected)


def test_row_holds_each_link_once_by_direction():
    p, q, r = paper_node("v1n1p1"), paper_node("v1n1p2"), paper_node("v1n1p3")
    undirected = build_graph(False, [(A, B, 1)], isolated_nodes=[C])
    assert [undirected.row(A, d) for d in ("out", "in", "both")] == [{B: 1}] * 3
    assert undirected.row(C) == {}
    directed = build_graph(True, [(p, q, 2), (q, p, 1), (r, p, 4)])
    assert directed.row(p) == {q: 2}
    assert directed.row(p, "in") == {q: 1, r: 4}
    assert directed.row(p, "both") == {q: 3, r: 4}
    assert list(directed.row(p, "both")) == [q, r]  # node order, though r's arc came last
    assert directed.row(r) == {p: 4} and directed.row(r, "in") == {}
    with pytest.raises(KeyError):
        directed.row(paper_node("v9n9p9"))


@pytest.mark.parametrize("directed", [False, True])
def test_bad_direction_is_rejected_by_name(directed):
    p, q = paper_node("v1n1p1"), paper_node("v1n1p2")
    graphs = [build_graph(directed, [(p, q, 1)])]
    if not directed:  # and a group-held graph, which reads no direction of its own
        graphs.append(build_layer(random_corpus(random.Random(5)), Layer.PAPER_COMMON_PACS))
    for g in graphs:
        seed = g.nodes()[0]
        for read in (lambda: g.rows("sideways"), lambda: g.row(seed, "sideways")):
            with pytest.raises(ValueError, match="'out', 'in' or 'both', got 'sideways'"):
                read()


def test_row_holds_an_arc_one_way_and_no_unknown_node():
    p, q = paper_node("v1n1p1"), paper_node("v1n1p2")
    g = build_graph(True, [(p, q, 1)])
    assert (g.row(p), g.row(q)) == ({q: 1}, {})
    assert (g.row(q, "in"), g.row(q, "both")) == ({p: 1}, {p: 1})
    assert not g.has_node(paper_node("v9n9p9"))
    with pytest.raises(KeyError):
        g.row(paper_node("v9n9p9"))


def test_directed_degree_is_out_row_plus_in_row():
    rng = random.Random(5)
    nodes = [paper_node(f"v1n1p{i}") for i in range(1, 16)]
    links = [(u, v, 1) for u in nodes for v in nodes if u != v and rng.random() < 0.2]
    g = build_graph(True, links)
    out, in_ = tuple(g.rows("out")), tuple(g.rows("in"))
    for node in g.nodes():
        i = g.index(node)
        assert g.degree(node) == len(out[i]) + len(in_[i])
        assert g.degree(node) == sum(node in (u, v) for u, v, _ in links)


def assert_symmetrized_is_old_route(g):
    # the view used to be rebuilt from the links; that route is the oracle
    view = g.symmetrized()
    assert view == build_graph(False, g.links(), isolated_nodes=g.nodes())
    assert view.nodes() == g.nodes()
    assert view.aux_counts is None
    assert_rows_ascending(view)


@pytest.mark.parametrize("seed", range(5))
def test_symmetrized_matches_build_graph_on_random_digraphs(seed):
    rng = random.Random(400 + seed)
    nodes = [author_node(i) for i in range(1, 21)] + [paper_node(f"v1n1p{i}") for i in range(1, 11)]
    links = [(u, v, rng.randint(1, 3)) for u in nodes for v in nodes if u != v and rng.random() < 0.1]
    links += [(v, u, rng.randint(1, 3)) for u, v, _ in rng.sample(links, len(links) // 4)]
    rng.shuffle(links)
    g = build_graph(True, links, isolated_nodes=nodes + [paper_node("v9n9p9")])
    assert any(u in g.row(v) for u, v, _ in g.links())  # opposite arcs are present
    assert_symmetrized_is_old_route(g)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_symmetrized_citation_layer_matches_build_graph(seed):
    assert_symmetrized_is_old_route(build_layer(random_corpus(random.Random(seed)), Layer.PAPER_CITATION))
