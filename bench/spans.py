"""Span tracing of journet from outside the package.

``Tracer.install`` replaces selected public functions with timing
wrappers in every ``journet.<module>`` namespace that binds them.  Calls
inside the package look their callees up in module globals at call time,
so nested calls such as ``metrics_report -> path_stats``,
``evolution_series -> snapshot / build_layer`` and
``related_rank -> build_layer`` are caught without changing the package.
Spans stay in memory until ``write``.  Untraced runs never install the
wrappers, so they time the unmodified functions.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# The functions wrapped in each module: the boundaries the per-layer
# metrics are taken at.  Small helpers called per node or per link (node
# constructors, Graph accessors) are left out so tracing stays cheap.
WRAPPED = {
    "corpus": ("ingest_corpus", "load_corpus", "persist_corpus", "snapshot", "validate_corpus"),
    "graph": ("build_graph", "adjacency_rows"),
    "layers": ("build_layer", "build_bipartite", "project_one_mode"),
    "metrics": (
        "degree_stats", "clustering", "path_stats", "connected_components",
        "bfs_distances", "metrics_report", "evolution_series",
    ),
    "communities": ("girvan_newman", "edge_betweenness", "modularity", "canonical_partition"),
    "retrieval": ("neighborhood", "layer_overlap", "related_rank"),
    "pajek": ("export_pajek", "parse_pajek"),
    "reports": (
        "metrics_kv", "metrics_csv", "adjacency_report_csv", "degree_distribution_csv",
        "partition_csv", "dendrogram_lines", "community_members_csv", "neighborhood_csv",
        "overlap_csv", "ranking_csv", "evolution_csv",
    ),
    "cli": ("main",),
}
MODULES = tuple(WRAPPED)


def _result_counts(name: str, result) -> dict:
    """Sizes recorded with a span, read off the wrapped call's result."""
    if name == "layers.build_layer":
        return {"links": result.link_count, "nodes": result.node_count}
    if name == "communities.girvan_newman":
        return {"levels": len(result.records), "removals": result.records[-1].removed_edges}
    if name == "pajek.export_pajek" or name.startswith("reports."):
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Records spans as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0] if argv else 'main'}"
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = _result_counts(name, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a journet module binds it."""
        package = [m for n, m in sys.modules.items() if n == "journet" or n.startswith("journet.")]
        for module_name, names in WRAPPED.items():
            module = sys.modules.get(f"journet.{module_name}")
            for func_name in names:
                original = getattr(module, func_name, None) if module else None
                if not callable(original):
                    if f"{module_name}.{func_name}" not in self.absent:
                        self.absent.append(f"{module_name}.{func_name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{func_name}", original)
                for namespace in package:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._restore.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def self_times(spans: list[list], start: int, stop: int) -> list[float]:
    """Self time of each span in ``spans[start:stop]``: its duration minus
    the part its child spans cover.  Children of one span never overlap,
    since the traced program is single-threaded, and a span's children
    are recorded after it and before the next top-level span."""
    selfs = [span[2] - span[1] for span in spans[start:stop]]
    for span in spans[start:stop]:
        if span[3] >= start:
            selfs[span[3] - start] -= span[2] - span[1]
    return selfs


def has_ancestor(spans: list[list], index: int, module: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(module + "."):
            return True
        parent = spans[parent][3]
    return False
