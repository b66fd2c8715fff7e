import random
from fractions import Fraction

import pytest

from journet.communities import (
    canonical_partition,
    community_of,
    edge_betweenness,
    girvan_newman,
    modularity,
)
from journet.graph import author_node, build_graph, paper_node
from journet.layers import Layer, build_layer
from journet.metrics import connected_components

from conftest import random_corpus, random_graph
from oracles import (
    all_partitions,
    enumerate_edge_betweenness,
    exact_modularity,
    modularity_from_edges,
)

n = author_node


def path3():
    return build_graph(False, [(n(1), n(2), 1), (n(2), n(3), 1)])


def cycle4():
    return build_graph(False, [(n(1), n(2), 1), (n(2), n(3), 1), (n(3), n(4), 1), (n(1), n(4), 1)])


def random_tree(rng, size):
    links = []
    for v in range(2, size + 1):
        links.append((n(rng.randint(1, v - 1)), n(v), 1))
    return build_graph(False, links)


# -- edge betweenness ---------------------------------------------------------

def test_betweenness_path():
    scores = edge_betweenness(path3())
    assert scores[(n(1), n(2))] == pytest.approx(2.0)
    assert scores[(n(2), n(3))] == pytest.approx(2.0)


def test_betweenness_two_triangle_bridge(two_triangle_graph):
    scores = edge_betweenness(two_triangle_graph)
    assert scores[(n(3), n(4))] == pytest.approx(9.0)
    assert scores[(n(1), n(3))] == pytest.approx(4.0)
    assert scores[(n(1), n(2))] == pytest.approx(1.0)
    expected = enumerate_edge_betweenness(
        {v: set(two_triangle_graph.row(v)) for v in two_triangle_graph.nodes()}
    )
    for edge, score in expected.items():
        assert scores[edge] == pytest.approx(score)


def test_betweenness_cycle_symmetry():
    scores = edge_betweenness(cycle4())
    values = list(scores.values())
    assert len(values) == 4
    assert all(v == pytest.approx(values[0]) for v in values)


def test_betweenness_edgeless():
    assert edge_betweenness(build_graph(False, [], isolated_nodes=[n(1)])) == {}


def test_betweenness_rejects_directed():
    from journet.graph import paper_node

    g = build_graph(True, [(paper_node("v1n1p1"), paper_node("v1n1p2"), 1)])
    with pytest.raises(ValueError, match="undirected"):
        edge_betweenness(g)


def test_tree_betweenness_is_side_product():
    for seed in range(10):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(2, 30))
        size = tree.node_count
        scores = edge_betweenness(tree)
        for (u, v), score in scores.items():
            # drop the edge, count the two sides
            adj = {x: set(tree.row(x)) for x in tree.nodes()}
            adj[u].discard(v)
            adj[v].discard(u)
            stack, seen = [u], {u}
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert score == pytest.approx(len(seen) * (size - len(seen)))


def test_tree_betweenness_sums_to_total_path_length():
    from journet.metrics import bfs_distances

    rng = random.Random(77)
    tree = random_tree(rng, 20)
    scores = edge_betweenness(tree)
    total = sum(
        sum(bfs_distances(tree, s).values()) for s in tree.nodes()
    ) / 2
    assert sum(scores.values()) == pytest.approx(total)


def test_betweenness_matches_exhaustive_enumeration_random():
    for seed in range(6):
        g = random_graph(random.Random(200 + seed), 12, 0.3)
        neighbor_sets = {v: set(g.row(v)) for v in g.nodes()}
        expected = enumerate_edge_betweenness(neighbor_sets)
        actual = edge_betweenness(g)
        assert set(actual) == set(expected)
        for edge in expected:
            assert actual[edge] == pytest.approx(expected[edge], abs=1e-9)


def test_betweenness_is_additive_over_components():
    """Each component scores bit for bit as the component built alone: the
    property that lets Girvan-Newman recompute only the piece that lost an edge."""
    pieces = 0
    for seed in range(8):
        g = random_graph(random.Random(600 + seed), 30, 0.06)
        scores = edge_betweenness(g)
        expected = enumerate_edge_betweenness({v: set(g.row(v)) for v in g.nodes()})
        assert set(scores) == set(expected)
        for edge, score in expected.items():
            assert scores[edge] == pytest.approx(score, abs=1e-9)
        covered = set()
        for comp in connected_components(g):
            members = set(comp)
            links = [(u, v, w) for u, v, w in g.links() if u in members]
            if not links:
                continue
            alone = edge_betweenness(build_graph(False, links))
            assert all(scores[edge] == value for edge, value in alone.items())
            covered |= set(alone)
            pieces += 1
        assert covered == set(scores)
    assert pieces >= 16  # several multi-edge components per graph


# -- modularity -----------------------------------------------------------------

def test_modularity_single_community_is_zero():
    g = cycle4()
    partition = {v: 0 for v in g.nodes()}
    assert modularity(g, partition) == pytest.approx(0.0)


def test_modularity_two_triangles_exact(two_triangle_graph):
    partition = {n(i): (0 if i <= 3 else 1) for i in range(1, 7)}
    q = modularity(two_triangle_graph, partition)
    assert q == pytest.approx(float(Fraction(5, 14)))


def test_modularity_two_triangles_is_global_maximum(two_triangle_graph):
    edges = [(u, v) for u, v, _ in two_triangle_graph.links()]
    best_q, count = -1.0, 0
    for blocks in all_partitions(two_triangle_graph.nodes()):
        count += 1
        best_q = max(best_q, modularity_from_edges(edges, blocks))
    assert count == 203  # Bell(6)
    assert best_q == pytest.approx(float(Fraction(5, 14)))


def test_modularity_bits_equal_exact_rational_on_every_partition(two_triangle_graph):
    edges = [(u, v) for u, v, _ in two_triangle_graph.links()]
    count = 0
    for blocks in all_partitions(two_triangle_graph.nodes()):
        partition = {node: i for i, block in enumerate(blocks) for node in block}
        assert modularity(two_triangle_graph, partition) == float(exact_modularity(edges, blocks))
        count += 1
    assert count == 203


def test_modularity_bits_equal_exact_rational_on_every_gn_level():
    for seed in range(6):
        g = random_graph(random.Random(700 + seed), 18, 0.08 + 0.04 * (seed % 3))
        edges = [(u, v) for u, v, _ in g.links()]
        for r in girvan_newman(g).records:
            blocks = {}
            for node, label in r.partition.items():
                blocks.setdefault(label, []).append(node)
            assert r.modularity == float(exact_modularity(edges, list(blocks.values())))


def test_modularity_singletons_of_k2():
    g = build_graph(False, [(n(1), n(2), 1)])
    q = modularity(g, {n(1): 0, n(2): 1})
    assert q == pytest.approx(-0.5)


def test_modularity_rejects_bad_partition():
    g = cycle4()
    with pytest.raises(ValueError, match="cover"):
        modularity(g, {n(1): 0})
    with pytest.raises(ValueError, match="edges"):
        modularity(build_graph(False, [], isolated_nodes=[n(1)]), {n(1): 0})
    with pytest.raises(ValueError, match="^modularity needs an undirected graph"):
        modularity(build_graph(True, [(n(1), n(2), 1)]), {n(1): 0, n(2): 0})


# -- girvan-newman ----------------------------------------------------------------

def test_gn_two_triangles(two_triangle_graph):
    result = girvan_newman(two_triangle_graph)
    # the bridge goes first, so the second recording is the two triangles
    assert result.records[1].removed_edges == 1
    assert result.records[1].community_count == 2
    best = result.best
    assert best.community_count == 2
    assert best.modularity == pytest.approx(float(Fraction(5, 14)))
    assert community_of(result, n(1)) == [n(1), n(2), n(3)]
    assert community_of(result, n(5)) == [n(4), n(5), n(6)]


def test_gn_triangle_keeps_whole_graph_best():
    g = build_graph(False, [(n(1), n(2), 1), (n(1), n(3), 1), (n(2), n(3), 1)])
    result = girvan_newman(g)
    qs = [r.modularity for r in result.records]
    assert qs[0] == pytest.approx(0.0)
    assert all(q <= 0.0 + 1e-12 for q in qs)
    # the 2-community split is present with its (negative) score
    two = [r for r in result.records if r.community_count == 2]
    assert len(two) == 1 and two[0].modularity == pytest.approx(-2 / 9)
    assert result.best.community_count == 1
    # exhaustive check: no partition of the triangle beats staying whole
    edges = [(u, v) for u, v, _ in g.links()]
    best_q = max(modularity_from_edges(edges, b) for b in all_partitions(g.nodes()))
    assert result.best.modularity == pytest.approx(best_q)


def test_gn_disjoint_triangles_record_initial_partition():
    links = [(n(1), n(2), 1), (n(1), n(3), 1), (n(2), n(3), 1),
             (n(4), n(5), 1), (n(4), n(6), 1), (n(5), n(6), 1)]
    result = girvan_newman(build_graph(False, links))
    first = result.records[0]
    assert first.removed_edges == 0
    assert first.community_count == 2
    assert first.modularity == pytest.approx(0.5)
    assert result.best is first


def test_gn_single_edge_consistent_best():
    g = build_graph(False, [(n(1), n(2), 1)])
    result = girvan_newman(g)
    # Q=0 for the joint community beats -1/2 for singletons
    assert result.best.community_count == 1
    assert community_of(result, n(1)) == [n(1), n(2)]


def test_gn_rejects_edgeless_and_directed():
    # An edgeless graph is refused, directed or not.  A directed graph with arcs is no
    # longer refused: test_gn_reads_a_directed_graph_both_ways checks it.  The name is
    # kept so the test's id stays the same across the change.
    with pytest.raises(ValueError, match="edge"):
        girvan_newman(build_graph(False, [], isolated_nodes=[n(1)]))
    with pytest.raises(ValueError, match="edge"):
        girvan_newman(build_graph(True, [], isolated_nodes=[paper_node("v1n1p1")]))


def opposite_arcs_digraph():
    p = [paper_node(f"v1n1p{i}") for i in range(1, 8)]
    arcs = [(0, 1, 1), (1, 0, 2), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1), (4, 3, 3),
            (4, 5, 1), (5, 3, 1), (6, 5, 1), (5, 6, 1)]
    return build_graph(True, [(p[a], p[b], w) for a, b, w in arcs])


@pytest.mark.parametrize("seed", [None, 21, 22, 23])  # None: the hand-built digraph
def test_gn_reads_a_directed_graph_both_ways(seed):
    if seed is None:
        g = opposite_arcs_digraph()
    else:
        g = build_layer(random_corpus(random.Random(seed)), Layer.PAPER_CITATION)
    assert g.directed and g.link_count > 0
    result = girvan_newman(g)
    expected = girvan_newman(build_graph(False, g.links(), isolated_nodes=g.nodes()))
    assert result.records == expected.records
    assert result.best_index == expected.best_index


def test_gn_partitions_refine_and_terminate():
    for seed in range(5):
        g = random_graph(random.Random(300 + seed), 12, 0.25)
        if g.link_count == 0:
            continue
        result = girvan_newman(g)
        # last record is all singletons after exactly link_count removals
        assert result.records[-1].removed_edges == g.link_count
        assert result.records[-1].community_count == g.node_count
        counts = [r.community_count for r in result.records]
        # one edge removal can split at most one component
        assert all(b - a == 1 for a, b in zip(counts, counts[1:]))
        for earlier, later in zip(result.records, result.records[1:]):
            # refinement: same earlier label within every later community
            groups = {}
            for node, lab in later.partition.items():
                groups.setdefault(lab, set()).add(earlier.partition[node])
            assert all(len(g) == 1 for g in groups.values())
        for r in result.records:
            assert -0.5 <= r.modularity < 1.0


def test_gn_breaks_cross_component_ties_by_global_min():
    # paths 1-2-3-4 and 5-6-7-8: middle edges carry 2*2 = 4 pairs, end edges 1*3 = 3
    paths = [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)]
    g = build_graph(False, [(n(a), n(b), 1) for a, b in paths])
    scores = edge_betweenness(g)
    assert scores[(n(2), n(3))] == scores[(n(6), n(7))] == 4.0
    assert scores[(n(1), n(2))] == scores[(n(3), n(4))] == 3.0
    assert scores[(n(5), n(6))] == scores[(n(7), n(8))] == 3.0
    result = girvan_newman(g)
    # removal order (2,3), (6,7), (1,2), (3,4), (5,6), (7,8): the middle tie
    # goes to the smaller edge, then every edge left scores 1 and ties again
    expected_blocks = [
        [[1, 2, 3, 4], [5, 6, 7, 8]],
        [[1, 2], [3, 4], [5, 6, 7, 8]],
        [[1, 2], [3, 4], [5, 6], [7, 8]],
        [[1], [2], [3, 4], [5, 6], [7, 8]],
        [[1], [2], [3], [4], [5, 6], [7, 8]],
        [[1], [2], [3], [4], [5], [6], [7, 8]],
        [[1], [2], [3], [4], [5], [6], [7], [8]],
    ]
    # m = 6: Q = sum over communities of L/6 - (d/12)^2
    expected_q = [Fraction(1, 2), Fraction(11, 24), Fraction(5, 12), Fraction(5, 18),
                  Fraction(5, 36), Fraction(0), Fraction(-5, 36)]
    assert [r.removed_edges for r in result.records] == [0, 1, 2, 3, 4, 5, 6]
    assert [r.community_count for r in result.records] == [2, 3, 4, 5, 6, 7, 8]
    for r, blocks, q in zip(result.records, expected_blocks, expected_q):
        labels = {}
        for node, label in r.partition.items():
            labels.setdefault(label, []).append(node.id)
        assert sorted(sorted(b) for b in labels.values()) == blocks
        assert r.modularity == float(q)
    assert result.best_index == 0


def test_gn_deterministic_under_input_order():
    links = [(n(1), n(2), 1), (n(1), n(3), 1), (n(2), n(3), 1),
             (n(4), n(5), 1), (n(4), n(6), 1), (n(5), n(6), 1), (n(3), n(4), 1)]
    shuffled = links[:]
    random.Random(1).shuffle(shuffled)
    a = girvan_newman(build_graph(False, links))
    b = girvan_newman(build_graph(False, shuffled))
    assert [r.partition for r in a.records] == [r.partition for r in b.records]


def test_canonical_partition_labels():
    blocks = [[n(5), n(6)], [n(1), n(3)], [n(2)]]
    partition = canonical_partition(blocks)
    assert partition == {n(1): 0, n(3): 0, n(2): 1, n(5): 2, n(6): 2}


def test_community_of_unknown_node(two_triangle_graph):
    result = girvan_newman(two_triangle_graph)
    with pytest.raises(ValueError, match="author:99"):
        community_of(result, n(99))
