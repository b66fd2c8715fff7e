"""Pins of every Girvan–Newman level's count and modularity bits, and of
edge-betweenness bits.

``tests/golden/gn-levels.txt`` holds, for each graph in ``GRAPHS``, one
line per dendrogram level: removed edges, community count and the
``repr`` of its modularity float.  The graphs are seeded random graphs
(some disconnected), two disjoint copies of one graph (so betweenness
ties exactly across components) and the co-authorship layers of two
preferential-attachment journals, the larger with about 150 authors.  A change to the betweenness kernel,
its tie-breaking or the modularity arithmetic that alters any removal
order or any float bit fails here.  ``tests/golden/edge-betweenness.txt``
holds the ``repr`` of every edge's betweenness on ten seeded random
graphs, so a change to the kernel's float arithmetic fails even where it
leaves every removal order alone.

Run ``PYTHONPATH=src python3 tests/test_gn_levels.py`` from the
repository root to write both files again; only do that for a deliberate
change of output.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from journet.communities import edge_betweenness, girvan_newman
from journet.graph import author_node, build_graph
from journet.layers import Layer, build_layer

from conftest import random_graph
from test_acceptance import preferential_attachment_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"


def twin_copies(rng: random.Random, n: int, p: float):
    """One random graph on authors 1..n and the same graph on 101..100+n."""
    base = random_graph(rng, n, p)
    links = []
    for u, v, w in base.links():
        links.append((u, v, w))
        links.append((author_node(u.id + 100), author_node(v.id + 100), w))
    nodes = base.nodes() + [author_node(x.id + 100) for x in base.nodes()]
    return build_graph(False, links, isolated_nodes=nodes)


GRAPHS = {
    "random-n12-p0.25-s300": lambda: random_graph(random.Random(300), 12, 0.25),
    "random-n20-p0.12-s11": lambda: random_graph(random.Random(11), 20, 0.12),
    "random-n30-p0.06-s21": lambda: random_graph(random.Random(21), 30, 0.06),
    "random-n30-p0.06-s24": lambda: random_graph(random.Random(24), 30, 0.06),
    "random-n40-p0.05-s10": lambda: random_graph(random.Random(10), 40, 0.05),
    "random-n30-p0.2-s13": lambda: random_graph(random.Random(13), 30, 0.2),
    "random-n40-p0.1-s14": lambda: random_graph(random.Random(14), 40, 0.1),
    "twins-n14-p0.3-s15": lambda: twin_copies(random.Random(15), 14, 0.3),
    "coauthorship-pa80-s16": lambda: build_layer(
        preferential_attachment_corpus(random.Random(16), n_papers=80, per_issue=10),
        Layer.COAUTHORSHIP,
    ),
    "coauthorship-pa140-s17": lambda: build_layer(
        preferential_attachment_corpus(random.Random(17), n_papers=140, per_issue=10),
        Layer.COAUTHORSHIP,
    ),
}


def levels_text() -> str:
    lines = []
    for name, make in GRAPHS.items():
        graph = make()
        lines.append(f"# {name} nodes={graph.node_count} links={graph.link_count}")
        for r in girvan_newman(graph).records:
            lines.append(f"{r.removed_edges} {r.community_count} {r.modularity!r}")
    return "\n".join(lines) + "\n"


def betweenness_text() -> str:
    lines = []
    for seed in range(10):
        n, p = 16 + 4 * seed, 0.05 + 0.03 * (seed % 4)
        lines.append(f"# random-n{n}-p{p:.2f}-s{800 + seed}")
        graph = random_graph(random.Random(800 + seed), n, p)
        for (u, v), score in sorted(edge_betweenness(graph).items()):
            lines.append(f"{u.id} {v.id} {score!r}")
    return "\n".join(lines) + "\n"


FIXTURES = {"gn-levels.txt": levels_text, "edge-betweenness.txt": betweenness_text}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_output_matches_golden(name):
    assert FIXTURES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, make in FIXTURES.items():
        text = make()
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name} ({len(text)} bytes)")
