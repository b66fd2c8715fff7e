"""Byte-for-byte pins of CLI output on one seeded journal.

The files in ``tests/golden/`` hold what the CLI printed for the
commands in ``CASES`` on a corpus drawn by ``random_corpus`` with a
fixed seed.  They pin the float sums of betweenness, modularity and
path means, the dendrogram, BFS visit results, export bytes and the
metrics of time slices (evolution, ``--as-of``), so a change to the
graph core or to snapshots that alters any of them fails here.

Run ``PYTHONPATH=src python3 tests/test_golden.py NAME...`` from the
repository root to write the named fixtures again, or leave out the names
to write every one; only do that for a deliberate change of output, or to
record a new case with the code as it stands before a change.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from journet.cli import main
from journet.corpus import persist_corpus

from conftest import random_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 20100707
SEED_PAPER = "v1n3p5"
RANK_LAYERS = "paper-common-author,paper-citation,paper-common-pacs,coupling"
SEED_AUTHOR = "103"  # the seed paper's author, in coauthorship and author-common-pacs
BIPARTITE_LAYERS = "bipartite-author-paper,bipartite-paper-pacs"

# fixture file -> CLI arguments after --corpus; "{out}" marks an --out path
CASES = {
    "stats-coauthorship.txt": ["stats", "--layer", "coauthorship"],
    "stats-paper-citation.txt": ["stats", "--layer", "paper-citation"],
    **{
        f"stats-{layer}.txt": ["stats", "--layer", layer]
        for layer in (
            "paper-common-author", "paper-common-pacs", "cocitation", "coupling",
            "author-common-pacs", "bipartite-author-paper", "bipartite-paper-pacs",
            "bipartite-paper-reference",
        )
    },
    "dendrogram-coauthorship.txt": ["communities", "--layer", "coauthorship", "--dump-dendrogram"],
    "partition-coauthorship.csv": ["communities", "--layer", "coauthorship"],
    "dendrogram-paper-citation.txt": [
        "communities", "--layer", "paper-citation", "--dump-dendrogram",
    ],
    "neighbors-out.csv": [
        "neighbors", "--layer", "paper-citation", "--node", SEED_PAPER,
        "--depth", "2", "--direction", "out",
    ],
    "neighbors-in.csv": [
        "neighbors", "--layer", "paper-citation", "--node", SEED_PAPER,
        "--depth", "2", "--direction", "in",
    ],
    "neighbors-both.csv": [
        "neighbors", "--layer", "paper-citation", "--node", SEED_PAPER,
        "--depth", "2", "--direction", "both",
    ],
    "rank.csv": ["rank", "--node", SEED_PAPER, "--layers", RANK_LAYERS],
    "rank-author.csv": [
        "rank", "--node", SEED_AUTHOR, "--layers", "coauthorship,author-common-pacs",
    ],
    "rank-bipartite.csv": ["rank", "--node", SEED_PAPER, "--layers", BIPARTITE_LAYERS],
    "overlap.csv": [
        "overlap", "--node", SEED_PAPER, "--layers", "paper-citation,paper-common-pacs,coupling",
    ],
    "coauthorship.net": [
        "export", "--layer", "coauthorship", "--format", "pajek", "--out", "{out}",
    ],
    "paper-citation.net": [
        "export", "--layer", "paper-citation", "--format", "pajek", "--out", "{out}",
    ],
    "coupling.net": ["export", "--layer", "coupling", "--format", "pajek", "--out", "{out}"],
    "author-common-pacs.net": [
        "export", "--layer", "author-common-pacs", "--format", "pajek", "--out", "{out}",
    ],
    "bipartite-author-paper.net": [
        "export", "--layer", "bipartite-author-paper", "--format", "pajek", "--out", "{out}",
    ],
    "bipartite-paper-reference.net": [
        "export", "--layer", "bipartite-paper-reference", "--format", "pajek", "--out", "{out}",
    ],
    "adjacency-coauthorship.csv": [
        "export", "--layer", "coauthorship", "--format", "adjacency", "--out", "{out}",
    ],
    "evolution-coauthorship-mean_clustering.csv": [
        "evolution", "--layer", "coauthorship", "--metric", "mean_clustering",
        "--out", "{out}",
    ],
    "evolution-paper-citation-component_count.csv": [
        "evolution", "--layer", "paper-citation", "--metric", "component_count",
        "--out", "{out}",
    ],
    "stats-coauthorship-as-of-v2n3.txt": ["stats", "--layer", "coauthorship", "--as-of", "v2n3"],
}


def golden_corpus():
    return random_corpus(
        random.Random(SEED),
        volumes=4,
        issues_per_volume=3,
        papers_per_issue=5,
        author_pool=36,
        external_keys=24,
    )


def run_case(corpus_path: Path, args: list[str], out_path: Path) -> str:
    """CLI output of one case: stdout, or the --out file when it writes one."""
    argv = [args[0], "--corpus", str(corpus_path)]
    argv += [str(out_path) if a == "{out}" else a for a in args[1:]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out_path.read_text(encoding="utf-8") if "{out}" in args else buf.getvalue()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "journal.corpus"
    persist_corpus(golden_corpus(), path)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, corpus_path, tmp_path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_case(corpus_path, CASES[name], tmp_path / name) == expected


def test_kind_prefix_names_a_shared_kind_of_two_kind_layers(corpus_path, tmp_path):
    # both layers hold papers and one other kind, so "paper:" names the kind
    args = ["rank", "--node", f"paper:{SEED_PAPER}", "--layers", BIPARTITE_LAYERS]
    expected = (GOLDEN / "rank-bipartite.csv").read_text(encoding="utf-8")
    assert run_case(corpus_path, args, tmp_path / "out") == expected


def write_fixtures(names=()) -> None:
    """Write the fixtures named, or every fixture when no name is given."""
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        raise SystemExit(f"unknown fixtures: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "journal.corpus"
        persist_corpus(golden_corpus(), corpus_path)
        for name in sorted(names or CASES):
            text = run_case(corpus_path, CASES[name], Path(tmp) / name)
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN / name} ({len(text)} bytes)")


if __name__ == "__main__":
    write_fixtures(sys.argv[1:])
