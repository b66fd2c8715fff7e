"""Build every network layer from the sample corpus and size them up.

Shows how one-mode projections relate to their bipartite sources: the
co-authorship of the sample data is the author-side projection of the
author-paper graph, with link weights counting shared papers.
"""

from pathlib import Path

from journet import (
    Layer,
    adjacency_rows,
    build_layer,
    ingest_corpus,
    project_one_mode,
)

DATA = Path(__file__).parent / "data"
corpus = ingest_corpus(
    DATA / "papers.csv", DATA / "authors.csv", DATA / "authorship.csv",
    DATA / "references.csv", DATA / "affiliations.csv",
)

print(f"{'layer':28} {'nodes':>5} {'links':>5}  directed")
for layer in Layer:
    g = build_layer(corpus, layer)
    print(f"{layer.value:28} {g.node_count:>5} {g.link_count:>5}  {g.directed}")

# the projection route, spelled out
coauth = project_one_mode(build_layer(corpus, Layer.BIPARTITE_AUTHOR_PAPER), "author")
assert coauth == build_layer(corpus, Layer.COAUTHORSHIP)

print("\nco-authorship adjacency (id | neighbours | degree | papers):")
g = build_layer(corpus, Layer.COAUTHORSHIP)
for row in adjacency_rows(g):
    nbrs = " ".join(str(n.id) for n in row.neighbours)
    print(f"  {row.node.id:>4} | {nbrs:24} | {row.degree} | {row.aux_count}")

cite = build_layer(corpus, Layer.PAPER_CITATION)
print("\nin-journal citation arcs (citing -> cited):")
for u, v, _ in cite.links():
    print(f"  {u.id} -> {v.id}")
