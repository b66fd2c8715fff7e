"""Differential tests: journet's statistics against networkx's.

networkx is a test-only dependency; without it this module is skipped.
The graphs are seeded random graphs, sparse ones among them so that
several components (and isolated nodes) occur.
"""

import math
import random

import pytest

nx = pytest.importorskip("networkx")

from journet import (  # noqa: E402
    Layer,
    build_layer,
    clustering,
    connected_components,
    edge_betweenness,
    girvan_newman,
    modularity,
    path_stats,
)

from conftest import random_corpus, random_graph  # noqa: E402

# (seed, nodes, link probability): the last two are disconnected
GRAPHS = [(1, 12, 0.35), (2, 20, 0.2), (3, 30, 0.12), (4, 40, 0.1), (5, 25, 0.06), (6, 35, 0.04)]


def to_nx(graph):
    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from((u, v) for u, v, _ in graph.links())
    return g


@pytest.fixture(params=GRAPHS, ids=lambda c: f"seed{c[0]}-n{c[1]}")
def graph(request):
    seed, n, p = request.param
    return random_graph(random.Random(seed), n, p)


def test_edge_betweenness_matches_networkx(graph):
    ours = {frozenset(edge): value for edge, value in edge_betweenness(graph).items()}
    theirs = nx.edge_betweenness_centrality(to_nx(graph), normalized=False)
    assert set(ours) == {frozenset(edge) for edge in theirs}
    for edge, value in theirs.items():
        assert ours[frozenset(edge)] == pytest.approx(value, abs=1e-9)


def test_clustering_matches_networkx(graph):
    ours = clustering(graph).per_node
    theirs = nx.clustering(to_nx(graph))
    assert set(ours) == set(theirs)
    for node, value in theirs.items():
        assert ours[node] == pytest.approx(value, abs=1e-12)


def test_components_match_networkx(graph):
    ours = connected_components(graph)
    theirs = {frozenset(c) for c in nx.connected_components(to_nx(graph))}
    assert {frozenset(c) for c in ours} == theirs
    assert ours == sorted((sorted(c) for c in theirs), key=lambda c: c[0])


def test_path_stats_on_giant_component_match_networkx(graph):
    g = to_nx(graph)
    comps = list(nx.connected_components(g))
    # the largest component; ties go to the one holding the smallest node
    giant = min(comps, key=lambda c: (-len(c), min(c)))
    stats = path_stats(graph)
    assert stats.component_count == len(comps)
    assert stats.giant_component_size == len(giant)
    if len(giant) > 1:
        sub = g.subgraph(giant)
        assert stats.mean_shortest_path == pytest.approx(
            nx.average_shortest_path_length(sub), abs=1e-12
        )
        assert stats.diameter == nx.diameter(sub)


def test_modularity_matches_networkx(graph):
    g = to_nx(graph)
    rng = random.Random(graph.node_count)
    partitions = [girvan_newman(graph).best.partition]
    partitions.append({node: rng.randrange(3) for node in graph.nodes()})
    for partition in partitions:
        groups = {}
        for node, label in partition.items():
            groups.setdefault(label, set()).add(node)
        expected = nx.community.modularity(g, groups.values(), weight=None)
        assert modularity(graph, partition) == pytest.approx(expected, abs=1e-12)


def test_directed_citation_layer_matches_networkx():
    corpus = random_corpus(random.Random(7), volumes=4, issues_per_volume=3, papers_per_issue=5)
    graph = build_layer(corpus, Layer.PAPER_CITATION)
    g = to_nx(graph)
    assert {frozenset(c) for c in connected_components(graph)} == {
        frozenset(c) for c in nx.weakly_connected_components(g)
    }
    undirected = g.to_undirected()
    ours = clustering(graph).per_node
    for node, value in nx.clustering(undirected).items():
        assert ours[node] == pytest.approx(value, abs=1e-12)


def test_girvan_newman_levels_match_networkx_until_a_tie():
    # Tied maxima may be broken differently, so each dendrogram is compared
    # level by level up to the first removal whose maximum is tied.  The
    # last removals always tie, so no full dendrogram is tie-free.
    compared = 0
    for n, p in ((14, 0.3), (20, 0.2), (30, 0.12)):
        for seed in range(20):
            graph = random_graph(random.Random(seed), n, p)
            # plain author ids as networkx nodes: hashing them is cheap
            g = nx.Graph()
            g.add_nodes_from(v.id for v in graph.nodes())
            g.add_edges_from((u.id, v.id) for u, v, _ in graph.links())
            tied = []

            def most_valuable_edge(h):
                scores = nx.edge_betweenness_centrality(h, normalized=False)
                edge = max(scores, key=scores.get)
                tied.append(sum(math.isclose(s, scores[edge]) for s in scores.values()) > 1)
                return edge

            theirs = nx.community.girvan_newman(g, most_valuable_edge)
            for record, level in zip(girvan_newman(graph).records[1:], theirs):
                if any(tied):
                    break
                groups = {}
                for node, label in record.partition.items():
                    groups.setdefault(label, set()).add(node.id)
                assert {frozenset(c) for c in level} == {frozenset(c) for c in groups.values()}
                compared += 1
    assert compared >= 100
