import random

import pytest

from journet.graph import (
    GraphError,
    NodeRef,
    adjacency_rows,
    author_node,
    build_graph,
    paper_node,
)

from conftest import random_graph
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
    assert g.weight(A, B) == 3
    # order of endpoints does not matter for undirected aggregation
    g2 = build_graph(False, [(A, B, 1), (B, A, 2)])
    assert g == g2


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(False, [(A, A, 1)])


def test_bad_weight_rejected():
    with pytest.raises(GraphError, match="weight"):
        build_graph(False, [(A, B, 0)])
    with pytest.raises(GraphError, match="weight"):
        build_graph(False, [(A, B, 1.5)])


def test_isolated_nodes_kept():
    g = build_graph(False, [(A, B, 1)], isolated_nodes=[C])
    assert g.has_node(C)
    assert g.neighbors(C) == []


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
    assert g.neighbors(p) == [q]
    assert g.in_neighbors(p) == [q]
    assert g.degree(p) == 2
    sym = g.symmetrized()
    assert not sym.directed
    assert sym.weight(p, q) == 3
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
