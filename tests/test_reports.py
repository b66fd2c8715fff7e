import random

from journet.communities import girvan_newman
from journet.graph import adjacency_rows, author_node, build_graph
from journet.layers import Layer, build_layer
from journet.metrics import degree_stats, evolution_series, metrics_report
from journet.reports import (
    adjacency_report_csv,
    degree_distribution_csv,
    dendrogram_lines,
    evolution_csv,
    metrics_csv,
    metrics_kv,
    neighborhood_csv,
    partition_csv,
    ranking_csv,
)
from journet.retrieval import neighborhood, related_rank

from conftest import random_corpus

n = author_node


def test_adjacency_report_quartet_row(quartet_corpus):
    g = build_layer(quartet_corpus, Layer.COAUTHORSHIP)
    text = adjacency_report_csv(g)
    lines = text.split("\n")
    assert lines[0] == "node_id,neighbour_ids,degree,aux_count"
    assert "3672,3671 3673 3674,3,1" in lines


def test_adjacency_report_isolated_row():
    g = build_graph(False, [], isolated_nodes=[n(5)])
    assert adjacency_report_csv(g) == "node_id,neighbour_ids,degree,aux_count\n5,,0,0\n"


def test_adjacency_report_matches_rows():
    corpus = random_corpus(random.Random(61))
    g = build_layer(corpus, Layer.COAUTHORSHIP)
    text = adjacency_report_csv(g)
    lines = text.strip().split("\n")[1:]
    rows = list(adjacency_rows(g))
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        cells = line.split(",")
        assert cells[0] == str(row.node.id)
        assert cells[2] == str(row.degree)
        assert cells[3] == str(row.aux_count)


def test_metrics_kv_fixed_keys():
    g = build_graph(False, [(n(1), n(2), 1), (n(2), n(3), 1), (n(1), n(3), 1)])
    text = metrics_kv(metrics_report(g))
    assert text == (
        "nodes=3\nlinks=3\nmean_degree=2\nmax_degree=2\n"
        "mean_clustering=1\nmax_clustering=1\nmean_path=1\n"
        "diameter=1\ncomponents=1\ngiant_size=3\n"
    )


def test_metrics_csv_has_one_row_per_metric():
    g = build_graph(False, [(n(1), n(2), 1)])
    lines = metrics_csv(metrics_report(g)).strip().split("\n")
    assert lines[0] == "metric,value"
    assert len(lines) == 11
    assert lines[1] == "nodes,2"


def test_degree_distribution_csv():
    g = build_graph(False, [(n(1), n(i), 1) for i in range(2, 6)])
    text = degree_distribution_csv(degree_stats(g))
    assert text == "degree,count,fraction\n1,4,0.8\n4,1,0.2\n"


def test_partition_and_dendrogram_rendering(two_triangle_graph):
    result = girvan_newman(two_triangle_graph)
    text = partition_csv(result.best.partition)
    lines = text.strip().split("\n")
    assert lines[0] == "node_id,community_label"
    assert lines[1] == "1,0" and lines[-1] == "6,1"
    dendro = dendrogram_lines(result)
    first, second = dendro.split("\n")[:2]
    assert first == "removed_edges=0 communities=1 Q=0"
    assert second.startswith("removed_edges=1 communities=2 Q=0.357142857")


def test_neighborhood_csv_sorted_by_distance_then_id():
    g = build_graph(False, [(n(2), n(1), 1), (n(2), n(3), 1), (n(3), n(4), 1)])
    text = neighborhood_csv(neighborhood(g, n(2), 2))
    assert text == "node_id,distance\n1,1\n3,1\n4,2\n"


def test_ranking_csv(triple_relation_corpus):
    from journet.graph import paper_node

    items = related_rank(
        triple_relation_corpus,
        paper_node("v4n4p14"),
        [Layer.PAPER_COMMON_AUTHOR, Layer.PAPER_CITATION, Layer.PAPER_COMMON_PACS],
    )
    lines = ranking_csv(items).strip().split("\n")
    assert lines[0] == "node_id,layer_count,weight_sum"
    assert lines[1] == "v4n2p17,3,3"


def test_evolution_csv(triple_relation_corpus):
    series = evolution_series(triple_relation_corpus, Layer.COAUTHORSHIP, "node_count")
    lines = evolution_csv(series).strip().split("\n")
    assert lines[0] == "volume,issue,value"
    assert lines[1] == "4,1,2"
    assert lines[-1] == "4,4,4"
