"""Plain-text and CSV serialization of analysis results.

Everything here is deterministic: fixed key order, sorted rows, LF line
endings, floats printed with %.12g.  These renderings are what the CLI
prints and what golden-file tests pin down.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping, Sequence

from .communities import CommunityResult
from .graph import Graph, NodeRef
from .metrics import DegreeStats, EvolutionSeries, MetricsReport
from .retrieval import NeighborhoodResult, OverlapResult, RelatedItem

METRIC_KEYS = [
    ("nodes", "node_count"),
    ("links", "link_count"),
    ("mean_degree", "mean_degree"),
    ("max_degree", "max_degree"),
    ("mean_clustering", "mean_clustering"),
    ("max_clustering", "max_clustering"),
    ("mean_path", "mean_shortest_path"),
    ("diameter", "diameter"),
    ("components", "component_count"),
    ("giant_size", "giant_component_size"),
]


def format_number(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _csv_text(rows: Iterable[Sequence], header: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def metrics_kv(report: MetricsReport) -> str:
    """key=value lines in fixed order."""
    return "".join(
        f"{key}={format_number(getattr(report, attr))}\n" for key, attr in METRIC_KEYS
    )


def metrics_csv(report: MetricsReport) -> str:
    rows = [(key, format_number(getattr(report, attr))) for key, attr in METRIC_KEYS]
    return _csv_text(rows, ["metric", "value"])


def adjacency_report_csv(graph: Graph) -> str:
    """Per-node nearest-neighbour table: id, neighbour ids, degree, aux count; the rows of
    ``adjacency_rows``, read from ``Graph._neighbour_keys`` and joined from id texts made once.
    If ``csv.writer`` writes every id bare, no cell needs quoting and rows are joined as text."""
    nodes, aux = graph.nodes(), graph.aux_counts
    ids = [str(node.id) for node in nodes]
    rows = ((ids[i], " ".join([ids[j] for j in keys]), len(keys), aux[nodes[i]] if aux else 0)
            for i, keys in enumerate(graph._neighbour_keys()))
    header = ["node_id", "neighbour_ids", "degree", "aux_count"]
    if _csv_text((), ids) != ",".join(ids) + "\n":  # the ids as one row: is any quoted?
        return _csv_text(rows, header)
    return "".join([_csv_text((), header), *(f"{a},{b},{d},{x}\n" for a, b, d, x in rows)])


def degree_distribution_csv(stats: DegreeStats) -> str:
    total = sum(stats.distribution.values())
    rows = [
        (k, stats.distribution[k], format_number(stats.distribution[k] / total))
        for k in sorted(stats.distribution)
    ]
    return _csv_text(rows, ["degree", "count", "fraction"])


def partition_csv(partition: Mapping[NodeRef, int]) -> str:
    rows = [(node.id, partition[node]) for node in sorted(partition)]
    return _csv_text(rows, ["node_id", "community_label"])


def dendrogram_lines(result: CommunityResult) -> str:
    return "".join(
        f"removed_edges={r.removed_edges} communities={r.community_count}"
        f" Q={format_number(r.modularity)}\n"
        for r in result.records
    )


def community_members_csv(members: Sequence[NodeRef]) -> str:
    return _csv_text([(node.id,) for node in members], ["node_id"])


def neighborhood_csv(result: NeighborhoodResult) -> str:
    ordered = sorted((d, node) for node, d in result.members.items())
    rows = [(node.id, d) for d, node in ordered]
    return _csv_text(rows, ["node_id", "distance"])


def overlap_csv(result: OverlapResult) -> str:
    return _csv_text([(node.id,) for node in sorted(result.common)], ["node_id"])


def ranking_csv(items: Sequence[RelatedItem]) -> str:
    rows = [(it.node.id, it.layer_count, it.weight_sum) for it in items]
    return _csv_text(rows, ["node_id", "layer_count", "weight_sum"])


def evolution_csv(series: EvolutionSeries) -> str:
    rows = [(t.volume, t.issue, format_number(v)) for t, v in series.points]
    return _csv_text(rows, ["volume", "issue", "value"])
