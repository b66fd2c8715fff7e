"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them all) and enforces its own wall-clock budget.  Expected values come
from independent brute-force oracles, never from the code under test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from journet.communities import edge_betweenness, girvan_newman
from journet.corpus import Corpus, load_corpus, persist_corpus, snapshot
from journet.graph import author_node, build_graph, paper_node
from journet.layers import Layer, build_layer, project_one_mode
from journet.metrics import (
    bfs_distances,
    clustering,
    connected_components,
    degree_stats,
    evolution_series,
    metrics_report,
)
from journet.pajek import export_pajek, parse_pajek
from journet.reports import adjacency_report_csv
from journet.retrieval import layer_overlap, related_rank

from conftest import make_authors, make_paper, random_corpus, random_graph
from test_layers import random_bipartite
from oracles import (
    all_partitions,
    brute_projection,
    enumerate_edge_betweenness,
    floyd_warshall,
    modularity_from_edges,
    triangle_clustering,
)


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"\nacceptance {number} ({title}): FAIL (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"\nacceptance {number} ({title}): PASS [{elapsed:.2f}s < {budget_seconds}s]")


def test_criterion_1_adjacency_report_row(quartet_corpus):
    with criterion(1, "co-author quartet adjacency row", 1.0):
        g = build_layer(quartet_corpus, Layer.COAUTHORSHIP)
        text = adjacency_report_csv(g)
        assert "\n3672,3671 3673 3674,3,1\n" in text


def test_criterion_2_projection_against_brute_force():
    with criterion(2, "one-mode projection vs all-pairs intersection", 10.0):
        for seed in range(100):
            rng = random.Random(seed)
            bip = random_bipartite(rng, rng.randint(1, 20), rng.randint(1, 20), 0.2)
            kind = rng.choice(["author", "paper"])
            nodes = [n for n in bip.nodes() if n.kind == kind]
            counterparts = {u: set(bip.row(u)) for u in nodes}
            expected = brute_projection(nodes, counterparts)
            actual = {(u, v): w for u, v, w in project_one_mode(bip, kind).links()}
            assert actual == expected


def test_criterion_3_metrics_against_oracles():
    with criterion(3, "clustering and BFS vs enumeration oracles", 30.0):
        for seed in range(50):
            rng = random.Random(1000 + seed)
            g = random_graph(rng, rng.randint(2, 50), rng.uniform(0.05, 0.25))
            neighbor_sets = {v: set(g.row(v)) for v in g.nodes()}
            expected_c = triangle_clustering(neighbor_sets)
            actual_c = clustering(g).per_node
            assert set(actual_c) == set(expected_c)
            for v in expected_c:
                assert abs(actual_c[v] - expected_c[v]) < 1e-12
            expected_d = floyd_warshall(neighbor_sets)
            for source in g.nodes():
                dist = bfs_distances(g, source)
                want = {t: d for (s, t), d in expected_d.items() if s == source}
                assert dist == want


def test_criterion_4_divisive_communities_desk_scale(two_triangle_graph):
    with criterion(4, "two-triangle bridge communities", 1.0):
        scores = edge_betweenness(two_triangle_graph)
        oracle = enumerate_edge_betweenness(
            {v: set(two_triangle_graph.row(v)) for v in two_triangle_graph.nodes()}
        )
        for edge, value in oracle.items():
            assert scores[edge] == value
        bridge = (author_node(3), author_node(4))
        assert scores[bridge] == 9.0
        assert max(v for e, v in scores.items() if e != bridge) == 4.0

        result = girvan_newman(two_triangle_graph)
        assert result.records[1].removed_edges == 1
        assert result.records[1].community_count == 2
        best = result.best
        assert best.community_count == 2
        assert best.partition[author_node(1)] == best.partition[author_node(3)]
        assert best.partition[author_node(4)] == best.partition[author_node(6)]
        assert best.modularity == float(Fraction(5, 14))

        # exhaustive: no other grouping of the 6 nodes scores higher
        edges = [(u, v) for u, v, _ in two_triangle_graph.links()]
        partitions = list(all_partitions(two_triangle_graph.nodes()))
        assert len(partitions) == 203
        best_q = max(modularity_from_edges(edges, blocks) for blocks in partitions)
        assert abs(best_q - 5 / 14) < 1e-12


def test_criterion_5_three_relation_overlap(triple_relation_corpus):
    with criterion(5, "three-relation overlap and ranking", 1.0):
        seed = paper_node("v4n4p14")
        layers = [Layer.PAPER_COMMON_AUTHOR, Layer.PAPER_CITATION, Layer.PAPER_COMMON_PACS]
        result = layer_overlap(triple_relation_corpus, seed, layers)
        assert result.common == {paper_node("v4n2p17")}
        ranked = related_rank(triple_relation_corpus, seed, layers)
        assert ranked[0].node == paper_node("v4n2p17")
        assert ranked[0].layer_count == 3


def test_criterion_6_coupling_cocitation_duality():
    with criterion(6, "coupling/co-citation vs bipartite projection", 10.0):
        for seed in range(50):
            corpus = random_corpus(random.Random(2000 + seed))
            bip = build_layer(corpus, Layer.BIPARTITE_PAPER_REFERENCE)
            coupling = build_layer(corpus, Layer.COUPLING)
            assert coupling == project_one_mode(bip, "paper")
            cocitation = build_layer(corpus, Layer.COCITATION)
            assert cocitation == project_one_mode(bip, "reference")


def test_criterion_7_evolution_monotone():
    with criterion(7, "evolution series on a 3-issue corpus", 5.0):
        corpus = random_corpus(
            random.Random(77), volumes=3, issues_per_volume=1, papers_per_issue=5
        )
        assert len(corpus.time_indexes()) == 3
        for metric in ("node_count", "link_count"):
            series = evolution_series(corpus, Layer.COAUTHORSHIP, metric)
            values = [v for _, v in series.points]
            assert values == sorted(values)
            for t, value in series.points:
                snap = snapshot(corpus, t)
                g = build_layer(snap, Layer.COAUTHORSHIP)
                assert value == (g.node_count if metric == "node_count" else g.link_count)


def preferential_attachment_corpus(rng, n_papers=1500, new_author_prob=0.35, per_issue=50):
    """Authorship with rich-get-richer recruitment: an existing author is
    drawn proportionally to the papers they already have."""
    draw_urn: list[int] = []
    next_author = 101
    papers = []
    authors: set[int] = set()
    for i in range(n_papers):
        vol = i // (per_issue * 2) + 1
        iss = (i // per_issue) % 2 + 1
        seq = i % per_issue + 1
        team: set[int] = set()
        size = rng.randint(2, 4)
        while len(team) < size:
            if not draw_urn or rng.random() < new_author_prob:
                aid = next_author
                next_author += 1
            else:
                aid = rng.choice(draw_urn)
            team.add(aid)
        for aid in team:
            draw_urn.append(aid)
            authors.add(aid)
        papers.append(make_paper(f"v{vol}n{iss}p{seq}", sorted(team)))
    return Corpus(papers, make_authors(sorted(authors)))


def test_criterion_8_heavy_tail_and_connectivity():
    with criterion(8, "heavy co-authorship tail, giant component", 10.0):
        corpus = preferential_attachment_corpus(random.Random(2026))
        g = build_layer(corpus, Layer.COAUTHORSHIP)
        stats = degree_stats(g)

        # binned density over the top decade of degrees must fall monotonically
        kmax = stats.max_degree
        lo = max(1, kmax // 10)
        edges = [math.floor(lo * (kmax / lo) ** (i / 4)) for i in range(5)]
        edges[-1] = kmax
        densities = []
        for a, b in zip(edges, edges[1:]):
            count = sum(c for k, c in stats.distribution.items() if a <= k <= b)
            densities.append(count / (b - a + 1))
        assert all(x >= y for x, y in zip(densities, densities[1:]))
        assert densities[0] > densities[-1]

        giant = max(len(c) for c in connected_components(g))
        assert giant > 0.5 * g.node_count


def test_criterion_9_round_trips(tmp_path):
    with criterion(9, "corpus and Pajek round trips", 5.0):
        for seed in range(20):
            rng = random.Random(3000 + seed)
            corpus = random_corpus(rng, papers_per_issue=rng.randint(1, 4))
            path = tmp_path / f"c{seed}.corpus"
            persist_corpus(corpus, path)
            assert load_corpus(path) == corpus
            persist_corpus(load_corpus(path), tmp_path / "again.corpus")
            assert path.read_bytes() == (tmp_path / "again.corpus").read_bytes()

            g = random_graph(rng, rng.randint(1, 20), 0.2)
            text = export_pajek(g)
            assert parse_pajek(text) == g
            assert export_pajek(parse_pajek(text)) == text


def test_criterion_10_evolution_on_1500_papers():
    corpus = preferential_attachment_corpus(random.Random(5), n_papers=1500)
    with criterion(10, "node_count evolution, 1.5k papers, 30 snapshots", 5.0):
        series = evolution_series(corpus, Layer.COAUTHORSHIP, "node_count")
    values = [v for _, v in series.points]
    assert [t for t, _ in series.points] == corpus.time_indexes()
    assert len(values) == 30 and values == sorted(values)
    assert values[-1] == build_layer(corpus, Layer.COAUTHORSHIP).node_count == corpus.author_count


def test_criterion_11_stats_on_dense_1500_paper_layer():
    corpus = preferential_attachment_corpus(random.Random(5), n_papers=1500)
    g = build_layer(corpus, Layer.PAPER_COMMON_AUTHOR)
    with criterion(11, "metrics_report on paper-common-author, 1.5k papers", 2.0):
        report = metrics_report(g)
    assert (report.node_count, report.link_count) == (1500, 36615)
    sizes = sorted(map(len, connected_components(g)))
    assert (report.component_count, report.giant_component_size) == (len(sizes), sizes[-1])
