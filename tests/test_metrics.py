import random
from collections import deque

import pytest

from journet.corpus import Corpus, TimeIndex, snapshot
from journet.graph import author_node, build_graph
from journet.layers import Layer, build_layer
from journet.metrics import (
    EVOLUTION_METRICS,
    PathStats,
    clustering,
    connected_components,
    degree_stats,
    evolution_series,
    metrics_report,
    path_stats,
)
from journet.retrieval import neighborhood

from conftest import make_authors, make_paper, random_corpus, random_graph
from oracles import floyd_warshall, queue_bfs, triangle_clustering
from test_layers import ONE_MODE_BUILDS, one_mode_id

n = author_node


def triangle():
    return build_graph(False, [(n(1), n(2), 1), (n(1), n(3), 1), (n(2), n(3), 1)])


def path4():
    return build_graph(False, [(n(1), n(2), 1), (n(2), n(3), 1), (n(3), n(4), 1)])


def complete(k):
    links = [(n(i), n(j), 1) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return build_graph(False, links)


def test_degree_stats_triangle():
    stats = degree_stats(triangle())
    assert stats.mean_degree == 2 and stats.max_degree == 2
    assert stats.distribution == {2: 3}


def test_degree_stats_star():
    links = [(n(1), n(i), 1) for i in range(2, 6)]
    stats = degree_stats(build_graph(False, links))
    assert stats.mean_degree == pytest.approx(8 / 5)
    assert stats.max_degree == 4
    assert stats.distribution == {1: 4, 4: 1}


def test_degree_stats_empty():
    stats = degree_stats(build_graph(False, []))
    assert stats.mean_degree == 0.0 and stats.max_degree == 0
    assert stats.distribution == {}


def test_degree_distribution_sums():
    g = random_graph(random.Random(17), 50, 0.1)
    stats = degree_stats(g)
    assert sum(stats.distribution.values()) == g.node_count
    assert sum(k * c for k, c in stats.distribution.items()) == 2 * g.link_count
    per_node = {v: g.degree(v) for v in g.nodes()}
    for k, count in stats.distribution.items():
        assert count == sum(1 for d in per_node.values() if d == k)


def test_degree_stats_directed_reports_in_out():
    from journet.graph import paper_node

    p, q = paper_node("v1n1p1"), paper_node("v1n1p2")
    stats = degree_stats(build_graph(True, [(p, q, 1)]))
    assert stats.mean_degree == 1.0
    assert stats.mean_out_degree == 0.5 and stats.mean_in_degree == 0.5


def test_clustering_triangle_and_path():
    stats = clustering(triangle())
    assert stats.mean == 1.0 and stats.max == 1.0
    stats = clustering(path4())
    assert stats.mean == 0.0 and stats.max == 0.0
    assert all(c == 0.0 for c in stats.per_node.values())


def test_clustering_matches_triangle_enumeration():
    for seed in range(10):
        g = random_graph(random.Random(seed), 50, 0.12)
        neighbor_sets = {v: set(g.row(v)) for v in g.nodes()}
        expected = triangle_clustering(neighbor_sets)
        stats = clustering(g)
        for v, c in expected.items():
            assert abs(stats.per_node[v] - c) < 1e-12


def test_clustering_exposes_triangle_counts():
    g = build_graph(False, [(n(1), n(2), 1), (n(1), n(3), 1), (n(2), n(3), 1),
                            (n(3), n(4), 1)])
    stats = clustering(g)
    assert stats.triangles == {n(1): 1, n(2): 1, n(3): 1, n(4): 0}
    # each triangle is seen from its three corners
    assert sum(stats.triangles.values()) % 3 == 0


def test_path_stats_path_graph():
    stats = path_stats(path4())
    assert stats.diameter == 3
    assert stats.mean_shortest_path == pytest.approx(5 / 3)
    assert stats.component_count == 1 and stats.giant_component_size == 4


def test_path_stats_two_disjoint_edges():
    g = build_graph(False, [(n(1), n(2), 1), (n(3), n(4), 1)])
    stats = path_stats(g)
    assert stats.component_count == 2
    assert stats.giant_component_size == 2
    assert stats.diameter == 1 and stats.mean_shortest_path == 1.0


def test_path_stats_single_node_component():
    g = build_graph(False, [], isolated_nodes=[n(1)])
    stats = path_stats(g)
    assert stats == type(stats)(0.0, 0, 1, 1)


def test_bfs_matches_floyd_warshall():
    from journet.metrics import bfs_distances

    for seed in range(8):
        g = random_graph(random.Random(40 + seed), 40, 0.08)
        neighbor_sets = {v: set(g.row(v)) for v in g.nodes()}
        expected = floyd_warshall(neighbor_sets)
        for source in g.nodes():
            dist = bfs_distances(g, source)
            got = {(source, t): d for t, d in dist.items()}
            want = {k: v for k, v in expected.items() if k[0] == source}
            assert got == want


def oracle_path_stats(neighbor_sets):
    """PathStats from Floyd-Warshall distances: the giant component is the
    largest reach set, ties to the one holding the smallest node."""
    dist = floyd_warshall(neighbor_sets)
    comps = {frozenset(t for (s, t) in dist if s == v) for v in neighbor_sets}
    if not comps:
        return PathStats(0.0, 0, 0, 0)
    giant = max(sorted(comps, key=min), key=len)
    if len(giant) < 2:
        return PathStats(0.0, 0, len(comps), len(giant))
    total = sum(d for (s, _), d in dist.items() if s in giant)
    pairs = len(giant) * (len(giant) - 1) // 2
    diameter = max(d for (s, _), d in dist.items() if s in giant)
    return PathStats(total / 2 / pairs, diameter, len(comps), len(giant))


def assert_exact_against_oracles(g, neighbor_sets=None):
    if neighbor_sets is None:
        neighbor_sets = {v: set(g.row(v, "both")) for v in g.nodes()}
    assert path_stats(g) == oracle_path_stats(neighbor_sets)
    stats = clustering(g)
    expected = triangle_clustering(neighbor_sets)
    assert stats.per_node == expected
    for v, c in expected.items():
        k = len(neighbor_sets[v])
        assert (2.0 * stats.triangles[v] / (k * (k - 1)) if k >= 2 else 0.0) == c
        assert k >= 2 or stats.triangles[v] == 0


def test_paths_and_clustering_equal_oracles_exactly_on_random_graphs():
    # the graphs of acceptance criterion 3
    for seed in range(50):
        rng = random.Random(1000 + seed)
        assert_exact_against_oracles(
            random_graph(rng, rng.randint(2, 50), rng.uniform(0.05, 0.25)))


@pytest.mark.parametrize("layer", list(Layer), ids=lambda layer: layer.value)
def test_paths_and_clustering_equal_oracles_exactly_on_layers(layer):
    for seed in (90, 91, 92, 93):
        assert_exact_against_oracles(build_layer(random_corpus(random.Random(seed)), layer))


def link_neighbour_sets(g):
    """Each node's neighbours read off ``g.links()``, not off its hop form."""
    neighbor_sets = {v: set() for v in g.nodes()}
    for u, v, _ in g.links():
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    return neighbor_sets


def oracle_corpus(seed):
    """A random journal whose size and sparsity vary with the seed."""
    rng = random.Random(seed)
    return random_corpus(rng, volumes=rng.randint(1, 3), papers_per_issue=rng.randint(1, 6),
                         author_pool=rng.randint(3, 30), external_keys=rng.randint(1, 30))


@pytest.mark.parametrize("seed", range(120, 128))
@pytest.mark.parametrize("build", ONE_MODE_BUILDS, ids=one_mode_id)
def test_group_kernel_equals_oracles_on_one_mode_layers(build, seed):
    g = build_layer(oracle_corpus(seed), *build)
    neighbor_sets = link_neighbour_sets(g)
    assert_exact_against_oracles(g, neighbor_sets)
    reach = {v: queue_bfs(neighbor_sets, v) for v in g.nodes()}
    assert list(map(tuple, connected_components(g))) == sorted(
        {tuple(sorted(dist)) for dist in reach.values()}, key=min)
    for v, dist in reach.items():
        for depth in (1, 2, 3):
            assert neighborhood(g, v, depth).members == {
                t: d for t, d in dist.items() if 0 < d <= depth}


def test_path_stats_runs_no_more_bfs_than_components(monkeypatch):
    import journet.graph
    import journet.metrics
    from journet.graph import components

    calls = []
    real_bfs = journet.graph.bfs

    def counting_bfs(*args, **kwargs):
        calls.append(args[2])  # the source
        return real_bfs(*args, **kwargs)

    monkeypatch.setattr(journet.graph, "bfs", counting_bfs)
    monkeypatch.setattr(journet.metrics, "bfs", counting_bfs)
    g = random_graph(random.Random(94), 60, 0.08)
    components(*g.hops())
    component_bfs = len(calls)
    calls.clear()
    stats = path_stats(g)
    assert stats.giant_component_size > component_bfs  # one BFS per source would show
    assert len(calls) <= component_bfs


def test_complete_graph_invariants():
    g = complete(5)
    report = metrics_report(g)
    assert report.mean_clustering == 1.0
    assert report.mean_shortest_path == 1.0
    assert report.diameter == 1


def test_metrics_report_triangle():
    report = metrics_report(triangle())
    assert (report.node_count, report.link_count) == (3, 3)
    assert report.mean_degree == 2.0
    assert report.mean_clustering == 1.0
    assert report.mean_shortest_path == 1.0
    assert report.diameter == 1
    assert report.component_count == 1


def test_metrics_report_empty():
    report = metrics_report(build_graph(False, []))
    assert report == type(report)(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0, 0, 0)


def test_metrics_report_composes_parts():
    g = random_graph(random.Random(50), 50, 0.1)
    report = metrics_report(g)
    deg = degree_stats(g)
    clu = clustering(g)
    pat = path_stats(g)
    assert report.mean_degree == deg.mean_degree
    assert report.max_degree == deg.max_degree
    assert report.mean_clustering == clu.mean
    assert report.max_clustering == clu.max
    assert report.mean_shortest_path == pat.mean_shortest_path
    assert report.diameter == pat.diameter
    assert report.diameter >= report.mean_shortest_path


def test_metrics_invariant_under_relabeling():
    rng = random.Random(60)
    g = random_graph(rng, 25, 0.15)
    perm = list(range(1, 26))
    rng.shuffle(perm)
    mapping = {i + 1: perm[i] for i in range(25)}
    links = [(n(mapping[u.id]), n(mapping[v.id]), w) for u, v, w in g.links()]
    isolated = [n(mapping[v.id]) for v in g.nodes()]
    h = build_graph(False, links, isolated_nodes=isolated)
    ra, rb = metrics_report(g), metrics_report(h)
    assert (ra.node_count, ra.link_count, ra.max_degree, ra.diameter) == (
        rb.node_count, rb.link_count, rb.max_degree, rb.diameter)
    assert ra.mean_degree == pytest.approx(rb.mean_degree)
    assert ra.mean_clustering == pytest.approx(rb.mean_clustering)
    assert ra.mean_shortest_path == pytest.approx(rb.mean_shortest_path)


def test_directed_layer_report_symmetrizes_paths(triple_relation_corpus):
    g = build_layer(triple_relation_corpus, Layer.PAPER_CITATION)
    report = metrics_report(g)
    assert report.link_count == 1
    assert report.giant_component_size == 2


def test_directed_out_degree_sum_is_arc_count():
    corpus = random_corpus(random.Random(81))
    g = build_layer(corpus, Layer.PAPER_CITATION)
    assert sum(len(g.row(v)) for v in g.nodes()) == g.link_count
    assert sum(g.degree(v) for v in g.nodes()) == 2 * g.link_count


# -- evolution ----------------------------------------------------------------

def test_evolution_single_issue_equals_full_metric():
    papers = [make_paper("v1n1p1", [1, 2])]
    corpus = Corpus(papers, make_authors([1, 2]))
    series = evolution_series(corpus, Layer.COAUTHORSHIP, "node_count")
    assert series.points == [(TimeIndex(1, 1), 2)]


def test_evolution_rejects_unknown_metric():
    corpus = random_corpus(random.Random(70))
    with pytest.raises(ValueError, match="valid metrics"):
        evolution_series(corpus, Layer.COAUTHORSHIP, "entropy")


def test_evolution_counts_non_decreasing_and_recomputable():
    corpus = random_corpus(random.Random(71))
    for metric in ("node_count", "link_count"):
        series = evolution_series(corpus, Layer.PAPER_COMMON_AUTHOR, metric)
        values = [v for _, v in series.points]
        assert values == sorted(values)
        assert [t for t, _ in series.points] == corpus.time_indexes()
        for t, value in series.points:
            g = build_layer(snapshot(corpus, t), Layer.PAPER_COMMON_AUTHOR)
            expected = g.node_count if metric == "node_count" else g.link_count
            assert value == expected


EVOLUTION_LAYERS = [
    Layer.COAUTHORSHIP,
    Layer.PAPER_COMMON_AUTHOR,
    Layer.PAPER_CITATION,
    Layer.COCITATION,
    Layer.BIPARTITE_AUTHOR_PAPER,
]


def component_sizes(graph):
    """Component sizes by a plain BFS over the graph's links, direction ignored."""
    nbrs = {v: set() for v in graph.nodes()}
    for u, v, _ in graph.links():
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, sizes = set(), []
    for start in nbrs:
        if start in seen:
            continue
        seen.add(start)
        queue, size = deque([start]), 0
        while queue:
            size += 1
            for v in nbrs[queue.popleft()] - seen:
                seen.add(v)
                queue.append(v)
        sizes.append(size)
    return sizes


@pytest.mark.parametrize("layer", EVOLUTION_LAYERS, ids=lambda layer: layer.value)
def test_evolution_equals_full_report_and_oracles(layer):
    for seed in (72, 73, 74):
        corpus = random_corpus(random.Random(seed))
        graphs = {t: build_layer(snapshot(corpus, t), layer) for t in corpus.time_indexes()}
        series = {m: evolution_series(corpus, layer, m) for m in EVOLUTION_METRICS}
        for metric, s in series.items():
            assert [t for t, _ in s.points] == list(graphs)
            for t, value in s.points:
                assert repr(value) == repr(getattr(metrics_report(graphs[t]), metric))
        values = {m: dict(s.points) for m, s in series.items()}
        for t, g in graphs.items():
            nbrs = {v: set(g.row(v, "both")) for v in g.nodes()}
            per_node = triangle_clustering(nbrs)
            assert values["mean_clustering"][t] == pytest.approx(
                sum(per_node.values()) / len(per_node), abs=1e-12)
            sizes = component_sizes(g)
            assert values["giant_component_size"][t] == max(sizes, default=0)
            assert values["component_count"][t] == len(sizes)


def test_evolution_runs_neither_full_report_nor_paths(monkeypatch):
    import journet.metrics

    def forbidden(graph):
        raise AssertionError("evolution must compute only the asked metric")

    monkeypatch.setattr(journet.metrics, "metrics_report", forbidden)
    monkeypatch.setattr(journet.metrics, "path_stats", forbidden)
    corpus = random_corpus(random.Random(75))
    for metric in EVOLUTION_METRICS:
        assert evolution_series(corpus, Layer.COAUTHORSHIP, metric).points


def test_evolution_of_empty_corpus_and_empty_layer():
    assert evolution_series(Corpus([], []), Layer.COAUTHORSHIP, "giant_component_size").points == []
    # a snapshot without references gives an empty co-citation layer
    corpus = Corpus([make_paper("v1n1p1", [1])], make_authors([1]))
    for metric in EVOLUTION_METRICS:
        (point,) = evolution_series(corpus, Layer.COCITATION, metric).points
        report = metrics_report(build_layer(corpus, Layer.COCITATION))
        assert repr(point[1]) == repr(getattr(report, metric))
