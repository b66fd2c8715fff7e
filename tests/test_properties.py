"""Property tests: snapshots, persistence, ingest and Pajek on generated corpora,
and the order, equality and checks of the node and time-index tuples.

hypothesis is a test-only dependency; without it this module is skipped.
Runs are derandomized, so every run draws the same examples.
"""

import copy
import csv
import pickle
import tempfile
from collections import Counter
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from journet.corpus import (  # noqa: E402
    AffiliationRecord,
    AuthorRecord,
    Corpus,
    PaperRecord,
    ReferenceKey,
    TimeIndex,
    ingest_corpus,
    load_corpus,
    normalize_ref_key,
    persist_corpus,
    snapshot,
    validate_corpus,
)
from journet.graph import AUTHOR, NODE_KINDS, GraphError, NodeRef  # noqa: E402
from journet.layers import Layer, build_layer  # noqa: E402
from journet.pajek import export_pajek, parse_pajek  # noqa: E402

from conftest import PACS_POOL  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)

time_indexes = st.builds(TimeIndex, st.integers(1, 3), st.integers(1, 3))
# reference keys as ingest leaves them: normalized and non-empty
normalized_keys = st.text(min_size=1, max_size=8).map(normalize_ref_key).filter(bool)


@st.composite
def corpora(draw, key_texts=st.text(min_size=1, max_size=8)):
    """A valid corpus: papers over up to nine issues, free-text titles, names
    and reference keys (drawn from ``key_texts``), and citations of papers drawn
    before them."""
    affiliations = [
        AffiliationRecord(fid, draw(st.text(max_size=6)), draw(st.none() | st.text(max_size=4)))
        for fid in range(draw(st.integers(0, 3)))
    ]
    author_ids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8, unique=True))
    authors = [
        AuthorRecord(aid, draw(st.text(max_size=6)),
                     frozenset(draw(st.lists(st.sampled_from([f.affiliation_id for f in affiliations]),
                                             max_size=2))) if affiliations else frozenset())
        for aid in author_ids
    ]
    papers, seq = [], Counter()
    for t in draw(st.lists(time_indexes, max_size=10)):
        seq[t] += 1
        pid = f"v{t.volume}n{t.issue}p{seq[t]}"
        keys = draw(st.lists(key_texts, max_size=3, unique=True))
        refs = [ReferenceKey(k) for k in keys]
        for target in draw(st.lists(st.sampled_from([p.paper_id for p in papers]), max_size=2,
                                    unique=True)) if papers else ():
            if f"cites {target}" not in keys:
                refs.append(ReferenceKey(f"cites {target}", target))
        papers.append(PaperRecord(
            paper_id=pid,
            title=draw(st.text(max_size=10)),
            volume=t.volume,
            issue=t.issue,
            year=draw(st.none() | st.integers(1900, 2100)),
            author_ids=tuple(draw(st.lists(st.sampled_from(author_ids), min_size=1, max_size=4,
                                           unique=True))),
            pacs_codes=frozenset(draw(st.lists(st.sampled_from(PACS_POOL), max_size=3))),
            reference_keys=tuple(refs),
        ))
    return Corpus(papers, authors, affiliations)


@PROPERTY_SETTINGS
@given(corpora(), time_indexes)
def test_every_snapshot_validates(corpus, as_of):
    assert validate_corpus(corpus).ok
    for t in corpus.time_indexes() + [as_of]:
        assert validate_corpus(snapshot(corpus, t)).ok


@PROPERTY_SETTINGS
@given(corpora(), time_indexes, time_indexes)
def test_snapshot_is_idempotent_and_monotone(corpus, t1, t2):
    early, late = snapshot(corpus, min(t1, t2)), snapshot(corpus, max(t1, t2))
    assert early.papers.keys() == {
        pid for pid, p in corpus.papers.items() if p.time_index <= min(t1, t2)}
    assert snapshot(early, min(t1, t2)) == early
    assert snapshot(late, max(t1, t2)) == late
    assert early.papers.keys() <= late.papers.keys()
    assert early.authors.keys() <= late.authors.keys()
    assert early.affiliations.keys() <= late.affiliations.keys()
    # cutting the later snapshot back gives the earlier one
    assert snapshot(late, min(t1, t2)) == early


@PROPERTY_SETTINGS
@given(corpora())
def test_persist_load_persist_is_byte_stable(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.corpus"), Path(tmp, "second.corpus")
        persist_corpus(corpus, first)
        loaded = load_corpus(first)
        assert loaded == corpus
        persist_corpus(loaded, second)
        before = first.read_bytes()
        assert second.read_bytes() == before
        for c in (corpus, loaded):  # a corpus keeps the layers built from it
            for layer in Layer:
                build_layer(c, layer).symmetrized()
            build_layer(c, Layer.COCITATION, internal_only=True)
        persist_corpus(corpus, first)
        persist_corpus(loaded, second)
        assert first.read_bytes() == second.read_bytes() == before


def _write_tables(corpus, folder, draw_order):
    """Write ``corpus`` as the five CSV tables, each table's rows in the
    order ``draw_order(rows)`` returns; return the paths in ingest order."""
    tables = {
        "papers.csv": (["paper_id", "title", "volume", "issue", "year", "pacs"], [
            [p.paper_id, p.title, p.volume, p.issue, "" if p.year is None else p.year,
             ";".join(sorted(p.pacs_codes))] for p in corpus.papers.values()]),
        "authors.csv": (["author_id", "name", "affiliation_ids"], [
            [a.author_id, a.name, ";".join(map(str, sorted(a.affiliation_ids)))]
            for a in corpus.authors.values()]),
        "authorship.csv": (["paper_id", "author_id", "position"], [
            [p.paper_id, aid, pos] for p in corpus.papers.values()
            for pos, aid in enumerate(p.author_ids, start=1)]),
        "references.csv": (["citing_paper_id", "ref_key", "internal_paper_id"], [
            [p.paper_id, r.key, r.internal_paper_id or ""] for p in corpus.papers.values()
            for r in p.reference_keys]),
        "affiliations.csv": (["affiliation_id", "name", "country"], [
            [f.affiliation_id, f.name, f.country or ""] for f in corpus.affiliations.values()]),
    }
    paths = []
    for name, (header, rows) in tables.items():
        path = Path(folder, name)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(draw_order(rows))
        paths.append(path)
    return paths


@PROPERTY_SETTINGS
@given(corpora(key_texts=normalized_keys), st.randoms(use_true_random=False))
def test_ingest_ignores_row_order(corpus, rng):
    with tempfile.TemporaryDirectory() as tmp:
        ordered, shuffled = Path(tmp, "ordered"), Path(tmp, "shuffled")
        ordered.mkdir()
        shuffled.mkdir()
        first = ingest_corpus(*_write_tables(corpus, ordered, list))
        second = ingest_corpus(*_write_tables(corpus, shuffled, lambda rows: rng.sample(rows, len(rows))))
        assert first == second
        persist_corpus(first, ordered / "journal.corpus")
        persist_corpus(second, shuffled / "journal.corpus")
        assert (ordered / "journal.corpus").read_bytes() == (shuffled / "journal.corpus").read_bytes()


# cited-work keys shaped like other kinds' ids or like Pajek syntax
adversarial_keys = st.one_of(
    st.integers(-10**4, 10**6).map(str),
    st.builds("v{}n{}p{}".format, st.integers(1, 99), st.integers(1, 9), st.integers(1, 99)),
    st.sampled_from(PACS_POOL),
    st.sampled_from(['*edges', '*arcs', '*vertices 3', '"', '""', 'a "quoted" key', 'smith, 1990']),
    st.text(alphabet='"*, 0123456789.+-edgsvnp', min_size=1, max_size=10),
).map(normalize_ref_key).filter(bool)


@PROPERTY_SETTINGS
@given(st.lists(st.lists(adversarial_keys, min_size=1, max_size=4, unique=True),
                min_size=1, max_size=6))
def test_pajek_round_trips_adversarial_keys(reference_lists):
    papers = [
        PaperRecord(f"v1n1p{seq}", "", 1, 1, None, (1,), frozenset(),
                    tuple(ReferenceKey(key) for key in sorted(keys)))
        for seq, keys in enumerate(reference_lists, start=1)
    ]
    g = build_layer(Corpus(papers, [AuthorRecord(1, "", frozenset())]), Layer.COCITATION)
    assert parse_pajek(export_pajek(g), kind="reference") == g


TEXT_KINDS = [kind for kind in NODE_KINDS if kind != AUTHOR]
# (kind, id) pairs NodeRef accepts, over all four kinds
node_pairs = st.tuples(st.just(AUTHOR), st.integers()) | st.tuples(
    st.sampled_from(TEXT_KINDS), st.text(max_size=4)
)
not_text = st.integers() | st.booleans() | st.floats() | st.none() | st.binary(max_size=2)


@PROPERTY_SETTINGS
@given(st.lists(node_pairs, max_size=12))
def test_nodes_order_hash_and_compare_as_their_pairs(pairs):
    nodes = [NodeRef(kind, x) for kind, x in pairs]
    assert [(node.kind, node.id) for node in sorted(nodes)] == sorted(pairs)
    for node, pair in zip(nodes, pairs):
        assert node == pair and hash(node) == hash(pair)
        assert [node == other for other in nodes] == [pair == other for other in pairs]


@PROPERTY_SETTINGS
@given(node_pairs)
def test_node_survives_pickle_and_copy(pair):
    node = NodeRef(*pair)
    pickled = [pickle.loads(pickle.dumps(node, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in [*pickled, copy.copy(node), copy.deepcopy(node)]:
        assert type(back) is NodeRef and back == node and str(back) == str(node)


@PROPERTY_SETTINGS
@given(st.text(max_size=8).filter(lambda kind: kind not in NODE_KINDS), node_pairs)
def test_node_rejects_unknown_kind(kind, pair):
    with pytest.raises(GraphError, match="unknown node kind"):
        NodeRef(kind, pair[1])


@PROPERTY_SETTINGS
@given(st.text(max_size=4) | st.booleans() | st.floats() | st.none())
def test_node_rejects_author_id_that_is_not_an_integer(author_id):
    with pytest.raises(GraphError, match="author ids are integers"):
        NodeRef(AUTHOR, author_id)


@PROPERTY_SETTINGS
@given(st.sampled_from(TEXT_KINDS), not_text)
def test_node_rejects_non_text_id_of_other_kinds(kind, node_id):
    with pytest.raises(GraphError, match=f"{kind} ids are text"):
        NodeRef(kind, node_id)


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)), max_size=12))
def test_time_indexes_order_as_volume_then_issue_and_parse_their_text(pairs):
    times = [TimeIndex(volume, issue) for volume, issue in pairs]
    assert [(t.volume, t.issue) for t in sorted(times)] == sorted(pairs)
    for t in times:
        assert TimeIndex.parse(str(t)) == t
