"""Property tests: snapshots and persistence on generated corpora.

hypothesis is a test-only dependency; without it this module is skipped.
Runs are derandomized, so every run draws the same examples.
"""

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
    load_corpus,
    persist_corpus,
    snapshot,
    validate_corpus,
)

from conftest import PACS_POOL  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)

time_indexes = st.builds(TimeIndex, st.integers(1, 3), st.integers(1, 3))


@st.composite
def corpora(draw):
    """A valid corpus: papers over up to nine issues, free-text titles, names
    and reference keys, and citations of papers drawn before them."""
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
        keys = draw(st.lists(st.text(min_size=1, max_size=8), max_size=3, unique=True))
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
        assert first.read_bytes() == second.read_bytes()
