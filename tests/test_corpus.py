import json
import random
import re
from dataclasses import replace

import pytest

from journet.corpus import (
    AffiliationRecord,
    AuthorRecord,
    Corpus,
    CorpusFormatError,
    IngestError,
    TimeIndex,
    ingest_corpus,
    load_corpus,
    normalize_ref_key,
    parse_paper_id,
    persist_corpus,
    snapshot,
    validate_corpus,
)
from journet.cli import main
from journet.graph import ID_RULES
from journet.layers import _LAYERS, Layer, _ends

from conftest import make_authors, make_paper, random_corpus

PAPERS = """\
paper_id,title,volume,issue,year,pacs
v1n1p1,"First, with comma",1,1,2001,05.50.+q;64.60.Cn
v1n2p1,Second,1,2,2001,
"""

AUTHORS = """\
author_id,name,affiliation_ids
10,Ann,1
11,Bob,1;2
12,Cid,
"""

AUTHORSHIP = """\
paper_id,author_id,position
v1n1p1,10,1
v1n1p1,11,2
v1n2p1,11,1
v1n2p1,12,2
"""

REFERENCES = """\
citing_paper_id,ref_key,internal_paper_id
v1n2p1,"  Some  Cited WORK ",v1n1p1
v1n2p1,another work,
"""

AFFILIATIONS = """\
affiliation_id,name,country
1,Institute A,UA
2,Institute B,
"""


def write_fixture(tmp_path, papers=PAPERS, authors=AUTHORS, authorship=AUTHORSHIP,
                  references=REFERENCES, affiliations=AFFILIATIONS):
    files = {}
    for name, text in [
        ("papers.csv", papers),
        ("authors.csv", authors),
        ("authorship.csv", authorship),
        ("references.csv", references),
        ("affiliations.csv", affiliations),
    ]:
        if text is None:
            files[name] = None
            continue
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files[name] = path
    return files


def ingest(tmp_path, **kwargs):
    files = write_fixture(tmp_path, **kwargs)
    return ingest_corpus(
        files["papers.csv"],
        files["authors.csv"],
        files["authorship.csv"],
        files["references.csv"],
        files["affiliations.csv"],
    )


def test_ingest_counts(tmp_path):
    corpus = ingest(tmp_path)
    assert corpus.paper_count == 2
    assert corpus.author_count == 3
    assert len(corpus.affiliations) == 2
    assert validate_corpus(corpus).ok


def test_ingest_normalizes_reference_keys(tmp_path):
    corpus = ingest(tmp_path)
    keys = [r.key for r in corpus.papers["v1n2p1"].reference_keys]
    assert "some cited work" in keys
    assert corpus.papers["v1n2p1"].reference_keys[1].internal_paper_id == "v1n1p1"


def test_ingest_author_order_follows_position(tmp_path):
    corpus = ingest(tmp_path)
    assert corpus.papers["v1n1p1"].author_ids == (10, 11)
    assert corpus.papers["v1n2p1"].author_ids == (11, 12)


def test_ingest_dangling_author_names_file_and_line(tmp_path):
    bad = AUTHORSHIP + "v1n2p1,999,3\n"
    with pytest.raises(IngestError, match=r"authorship\.csv:6.*999"):
        ingest(tmp_path, authorship=bad)


def test_ingest_authorless_paper_names_file_and_line(tmp_path):
    papers = "paper_id,title,volume,issue,year,pacs\nv1n1p1,One,1,1,,\nv1n1p2,Two,1,1,,\n"
    authorship = "paper_id,author_id,position\nv1n1p1,10,1\n"
    references = "citing_paper_id,ref_key,internal_paper_id\n"
    with pytest.raises(IngestError, match=r"papers\.csv:3.*v1n1p2"):
        ingest(tmp_path, papers=papers, authorship=authorship, references=references)


def test_ingest_duplicate_paper_fatal(tmp_path):
    bad = PAPERS + "v1n1p1,Again,1,1,2001,\n"
    with pytest.raises(IngestError, match="duplicate paper id"):
        ingest(tmp_path, papers=bad)


def test_ingest_bad_pacs_fatal(tmp_path):
    bad = PAPERS.replace("05.50.+q", "5.50.+q")
    with pytest.raises(IngestError, match="PACS"):
        ingest(tmp_path, papers=bad)


@pytest.mark.parametrize("code, valid", [
    ("05.50.+q", True), ("64.60.Cn", True), ("98.80.-k", True), ("05.50.+q\n", False),
    ("\n05.50.+q", False), ("05.50.+q ", False), ("5.50.+q", False), ("05.50.+qq", False),
    ("05.50.+", False), ("05,50.+q", False), ("\u0660\u0665.\u0665\u0660.+q", False)])
def test_validate_and_the_pacs_id_rule_accept_the_same_codes(code, valid):
    corpus = Corpus([make_paper("v1n1p1", [10], pacs=[code])], make_authors([10]))
    assert validate_corpus(corpus).kinds() == ([] if valid else ["bad-pacs"])
    assert bool(ID_RULES["pacs"].fullmatch(code)) is valid


def test_validate_judges_a_pacs_code_once_and_reports_it_for_each_paper():
    corpus = Corpus([make_paper("v1n1p1", [10], pacs=["bad", "05.50.+q"]),
                     make_paper("v1n1p2", [10], pacs=["64.60.Cn"]),
                     make_paper("v1n1p3", [10], pacs=["bad", "5.50.+q", "05.50.+q"])],
                    make_authors([10]))
    assert [str(v) for v in validate_corpus(corpus).violations] == [
        "bad-pacs [v1n1p1]: PACS code 'bad' is not NN.NN.xx",
        "bad-pacs [v1n1p3]: PACS code '5.50.+q' is not NN.NN.xx",
        "bad-pacs [v1n1p3]: PACS code 'bad' is not NN.NN.xx"]


def test_ingest_self_citation_fatal(tmp_path):
    bad = REFERENCES + "v1n1p1,loop,v1n1p1\n"
    with pytest.raises(IngestError, match="cites itself"):
        ingest(tmp_path, references=bad)


# One broken record per record rule, as CSV edits of the fixture: the table
# edits, the "file:line" of the row that breaks the rule, and the offending
# id, code or key that the problem must name.
RULE_CASES = {
    "paper-id-shape": (
        dict(papers=PAPERS.replace("v1n2p1", "v1n2p01"),
             authorship=AUTHORSHIP.replace("v1n2p1", "v1n2p01"),
             references=REFERENCES.replace("v1n2p1", "v1n2p01")),
        "papers.csv:3", "v1n2p01"),
    "paper-id-columns": (
        dict(papers=PAPERS.replace("v1n2p1,Second,1,2", "v1n2p1,Second,2,2")),
        "papers.csv:3", "v1n2p1"),
    "pacs-shape": (dict(papers=PAPERS.replace("05.50.+q", "5.50.+q")), "papers.csv:2", "5.50.+q"),
    # a quoted cell may end in a newline, which `$` alone lets through; the row starts on line 2
    "pacs-newline": (dict(papers=PAPERS.replace("05.50.+q;64.60.Cn", '"64.60.Cn;05.50.+q\n"')),
                     "papers.csv:2", repr("05.50.+q\n")),
    "dangling-author": (dict(authorship=AUTHORSHIP + "v1n2p1,999,3\n"), "authorship.csv:6", "999"),
    "author-twice": (dict(authorship=AUTHORSHIP + "v1n2p1,11,3\n"), "authorship.csv:6", "11"),
    "no-authors": (
        dict(authorship=AUTHORSHIP.replace("v1n2p1,11,1\nv1n2p1,12,2\n", "")),
        "papers.csv:3", "v1n2p1"),
    "empty-key": (dict(references=REFERENCES + 'v1n1p1,"  ",\n'), "references.csv:4", ""),
    "repeated-key": (dict(references=REFERENCES + "v1n2p1,Another  Work,\n"),
                     "references.csv:4", "another work"),
    "dangling-cited-paper": (dict(references=REFERENCES + "v1n2p1,ghost,v9n9p9\n"),
                             "references.csv:4", "v9n9p9"),
    "self-citation": (dict(references=REFERENCES + "v1n1p1,loop,v1n1p1\n"),
                      "references.csv:4", "v1n1p1"),
    "dangling-affiliation": (dict(authors=AUTHORS.replace("12,Cid,", "12,Cid,3")),
                             "authors.csv:4", "3"),
    "blank-cited-paper": (dict(references=REFERENCES + "v1n2p1,ghost,   \n"),
                          "references.csv:4", "'   '"),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_ingest_names_row_of_each_broken_rule(tmp_path, case):
    edits, where, item = RULE_CASES[case]
    with pytest.raises(IngestError) as info:
        ingest(tmp_path, **edits)
    assert any(p.startswith(f"{where}: ") and item in p for p in info.value.problems), \
        info.value.problems


def test_ingest_tells_a_paper_row_from_an_author_row_with_the_same_id(tmp_path):
    papers = PAPERS + "10,Numbered,1,1,,\n"
    authorship = AUTHORSHIP + "10,3,1\n"
    authors = AUTHORS.replace("10,Ann,1", "10,Ann,3")
    with pytest.raises(IngestError) as info:
        ingest(tmp_path, papers=papers, authors=authors, authorship=authorship)
    assert sorted(p.split(" [")[0] for p in info.value.problems) == [
        "authors.csv:2: dangling-affiliation", "authorship.csv:6: dangling-author",
        "papers.csv:4: bad-paper-id"]


def record(payload, table, n):
    """Row ``n`` of ``table`` in a corpus file's payload, read and written by field name."""
    return Row(payload[table]["fields"], payload[table]["rows"][n])


class Row:
    def __init__(self, fields, values):
        self.fields, self.values = fields, values

    def __getitem__(self, field):
        return self.values[self.fields.index(field)]

    def __setitem__(self, field, value):
        self.values[self.fields.index(field)] = value

    def update(self, **fields):
        for field, value in fields.items():
            self[field] = value


def cite(payload, n, key, internal_paper_id=None):
    """Paper row ``n`` cites the work (key, internal id) too: its row of
    ``works``, appended first if no row holds it yet."""
    works = payload["works"]["rows"]
    if [key, internal_paper_id] not in works:
        works.append([key, internal_paper_id])
    record(payload, "papers", n)["reference_keys"].append(works.index([key, internal_paper_id]))


def rewrite(path, header, payload):
    path.write_text(header + "\n" + json.dumps(payload) + "\n", encoding="utf-8")


# The hand-edited corpus file equivalent to each case of RULE_CASES, as an
# edit of the persisted fixture (papers v1n1p1, v1n2p1; authors 10, 11, 12).
LOAD_EDITS = {
    "paper-id-shape": lambda pl: record(pl, "papers", 1).update(paper_id="v1n2p01"),
    "paper-id-columns": lambda pl: record(pl, "papers", 1).update(volume=2),
    "pacs-shape": lambda pl: record(pl, "papers", 0).update(pacs_codes=["5.50.+q", "64.60.Cn"]),
    "pacs-newline": lambda pl: record(pl, "papers", 0).update(pacs_codes=["05.50.+q\n", "64.60.Cn"]),
    "dangling-author": lambda pl: record(pl, "papers", 1)["author_ids"].append(999),
    "author-twice": lambda pl: record(pl, "papers", 1)["author_ids"].append(11),
    "no-authors": lambda pl: record(pl, "papers", 1).update(author_ids=[]),
    "empty-key": lambda pl: cite(pl, 0, ""),
    "repeated-key": lambda pl: cite(pl, 1, "another work"),  # its own row, cited again
    "dangling-cited-paper": lambda pl: cite(pl, 1, "ghost", "v9n9p9"),
    "self-citation": lambda pl: cite(pl, 0, "loop", "v1n1p1"),
    "dangling-affiliation": lambda pl: record(pl, "authors", 2).update(affiliation_ids=[3]),
    "blank-cited-paper": lambda pl: cite(pl, 1, "ghost", "   "),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_ingest_reports_each_broken_rule_once_as_load_does(tmp_path, case):
    # One problem only: a paper with a bad PACS code or a malformed id keeps its
    # record, so its authorship and reference rows raise nothing more.
    path = tmp_path / "c.corpus"
    persist_corpus(ingest(tmp_path), path)
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    payload = json.loads(body)
    LOAD_EDITS[case](payload)
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError) as loaded:
        load_corpus(path)
    edits, where, _ = RULE_CASES[case]
    with pytest.raises(IngestError) as ingested:
        ingest(tmp_path, **edits)
    (problem,) = ingested.value.problems
    # "file:line: kind [subject]: message" against "... fails validation: kind [subject]: message"
    violation = problem.removeprefix(f"{where}: ")
    assert str(loaded.value).endswith(f"fails validation: {violation}")
    assert re.match(r"[a-z-]+ \[", violation)


@pytest.mark.parametrize("edits, problem", [
    (dict(authors=AUTHORS.replace("10,Ann,1", "1_0,Ann,1")),
     "authors.csv:2: author_id '1_0' is not an integer"),
    (dict(authorship=AUTHORSHIP.replace("v1n2p1,12,2", "v1n2p1,\u0661\u0662,2")),
     "authorship.csv:5: author_id '\u0661\u0662' is not an integer"),
    (dict(papers=PAPERS.replace("v1n2p1,Second,1,2,2001", "v1n2p1,Second,1,2,2_001")),
     "papers.csv:3: year '2_001' is not an integer"),
], ids=["underscore", "arabic-indic", "year"])
def test_ingest_reads_integer_cells_in_ascii_digits_only(tmp_path, edits, problem):
    with pytest.raises(IngestError) as info:
        ingest(tmp_path, **edits)
    assert problem in info.value.problems


def test_ingest_still_reads_a_signed_or_padded_integer_cell(tmp_path):
    padded = ingest(tmp_path, authorship=AUTHORSHIP.replace("v1n1p1,11,2", "v1n1p1, +11 ,+2"))
    assert padded.papers == ingest(tmp_path).papers


def test_ingest_wrong_header_fatal(tmp_path):
    bad = PAPERS.replace("paper_id,title", "id,title")
    with pytest.raises(IngestError, match=r"papers\.csv:1.*header"):
        ingest(tmp_path, papers=bad)


def test_ingest_wrong_arity_fatal(tmp_path):
    bad = PAPERS + "v2n1p1,Short row,2,1\n"
    with pytest.raises(IngestError, match=r"papers\.csv:4.*fields"):
        ingest(tmp_path, papers=bad)


def test_ingest_missing_affiliations_file_with_clean_authors(tmp_path):
    authors = "author_id,name,affiliation_ids\n10,Ann,\n11,Bob,\n12,Cid,\n"
    files = write_fixture(tmp_path, authors=authors)
    corpus = ingest_corpus(
        files["papers.csv"], files["authors.csv"],
        files["authorship.csv"], files["references.csv"],
    )
    assert corpus.affiliations == {}


def test_ingest_row_order_invariant(tmp_path):
    rng = random.Random(5)

    def shuffled(text):
        header, *rows = text.strip().split("\n")
        rng.shuffle(rows)
        return header + "\n" + "\n".join(rows) + "\n"

    base = ingest(tmp_path)
    sub = tmp_path / "shuffled"
    sub.mkdir()
    again = ingest(
        sub,
        papers=shuffled(PAPERS),
        authors=shuffled(AUTHORS),
        authorship=shuffled(AUTHORSHIP),
        references=shuffled(REFERENCES),
        affiliations=shuffled(AFFILIATIONS),
    )
    assert base == again


@pytest.mark.parametrize("kind", ["paper", "author", "affiliation"])
def test_corpus_rejects_duplicate_id(kind):
    tables = {
        "paper": [make_paper("v1n1p1", [10])],
        "author": make_authors([10]),
        "affiliation": [AffiliationRecord(1, "Institute A")],
    }
    first = tables[kind][0]
    tables[kind].append(replace(first))  # an equal record, not the same object
    first_id = getattr(first, f"{kind}_id")
    with pytest.raises(ValueError, match=f"^duplicate {kind} id {first_id}$"):
        Corpus(tables["paper"], tables["author"], tables["affiliation"])


def test_parse_paper_id_round_trip():
    assert parse_paper_id("v4n4p14") == (4, 4, 14)
    for bad in ["v4n4", "x4n4p14", "v04n4p14", "v0n1p1", "v4n4p14x"]:
        with pytest.raises(ValueError):
            parse_paper_id(bad)


def test_time_index_parse_rejects_what_paper_ids_reject():
    assert TimeIndex.parse("v12n3") == TimeIndex(12, 3)
    for bad in ["v0n1", "v1n0", "v01n1", "v1n01", "v1n1\n", "v1", "1n1"]:
        with pytest.raises(ValueError):
            TimeIndex.parse(bad)
        with pytest.raises(ValueError):
            parse_paper_id(bad + "p1")


def test_normalize_ref_key():
    assert normalize_ref_key("  A   Cited\tWork ") == "a cited work"


def test_validate_flags_duplicate_author():
    paper = make_paper("v1n1p1", [10, 10])
    report = validate_corpus(Corpus([paper], make_authors([10])))
    assert report.kinds() == ["duplicate-author"]


def test_validate_clean_fixture_empty(triple_relation_corpus):
    assert validate_corpus(triple_relation_corpus).ok


def test_validate_matches_brute_force_cross_reference():
    rng = random.Random(9)
    corpus = random_corpus(rng)
    # knock out one author record; exactly that author's papers must complain
    victim = rng.choice(sorted({a for p in corpus.papers.values() for a in p.author_ids}))
    broken = Corpus(
        corpus.papers.values(),
        [a for a in corpus.authors.values() if a.author_id != victim],
        corpus.affiliations.values(),
    )
    report = validate_corpus(broken)
    expected = {
        pid for pid, p in broken.papers.items() if victim in p.author_ids
    }
    dangling = [v for v in report.violations if v.kind == "dangling-author"]
    assert {v.subject for v in dangling} == expected
    assert len(report.violations) == len(dangling)


# -- snapshots ---------------------------------------------------------------

def test_snapshot_identity_and_empty(triple_relation_corpus):
    c = triple_relation_corpus
    assert snapshot(c, TimeIndex(4, 4)) == c
    early = snapshot(c, TimeIndex(0, 0))
    assert early.paper_count == 0 and early.author_count == 0
    assert validate_corpus(early).ok


def test_snapshot_filters_by_parsed_id():
    corpus = random_corpus(random.Random(2))
    as_of = TimeIndex(2, 1)
    snap = snapshot(corpus, as_of)
    expected = {pid for pid, p in corpus.papers.items() if p.time_index <= as_of}
    assert set(snap.papers) == expected
    assert validate_corpus(snap).ok


def test_snapshot_monotone_and_idempotent():
    corpus = random_corpus(random.Random(3))
    times = corpus.time_indexes()
    previous: set[str] = set()
    for t in times:
        snap = snapshot(corpus, t)
        assert previous <= set(snap.papers)
        previous = set(snap.papers)
        again = snapshot(snap, t)
        assert again == snap


def test_snapshot_detaches_forward_citations():
    papers = [
        make_paper("v1n1p1", [10], refs=[("future work", "v2n1p1")]),
        make_paper("v1n1p2", [11], refs=["old work", ("first paper", "v1n1p1")]),
        make_paper("v2n1p1", [11]),
    ]
    corpus = Corpus(papers, make_authors([10, 11]))
    snap = snapshot(corpus, TimeIndex(1, 1))
    (ref,) = snap.papers["v1n1p1"].reference_keys
    assert ref.key == "future work" and ref.internal_paper_id is None
    # a paper that cites nothing outside the snapshot keeps its record object
    assert snap.papers["v1n1p2"] is corpus.papers["v1n1p2"]
    assert validate_corpus(snap).ok


def test_ingest_load_and_snapshot_hold_one_record_per_cited_work(tmp_path):
    # "later work" is cited with v1n2p1's id twice and by key alone once; a
    # snapshot before v1n2p1 holds it as one work, the key-alone record
    corpus = ingest(
        tmp_path,
        papers=PAPERS + "v1n1p2,Third,1,1,,05.50.+q\nv1n1p3,Fourth,1,1,,\n",
        authorship=AUTHORSHIP + "v1n1p2,12,1\nv1n1p3,10,1\n",
        references=REFERENCES + ("v1n1p1,Another  Work,\nv1n1p1,Later Work,v1n2p1\n"
                                 "v1n1p2,later  work,v1n2p1\nv1n1p2,another work,\n"
                                 "v1n1p3,LATER WORK,\n"))
    path = tmp_path / "c.corpus"
    persist_corpus(corpus, path)
    loaded = load_corpus(path)
    corpora = {"ingested": (corpus, 7, 4), "loaded": (loaded, 7, 4),
               "snapshot": (snapshot(corpus, TimeIndex(1, 1)), 5, 2),
               "loaded snapshot": (snapshot(loaded, TimeIndex(1, 1)), 5, 2)}
    for name, (c, citations, works) in corpora.items():
        refs = [ref for p in c.papers.values() for ref in p.reference_keys]
        assert (len(refs), len(set(refs)), len({*map(id, refs)})) == (citations, works, works), name
    snap = corpora["snapshot"][0]
    assert snap.papers["v1n1p3"] is corpus.papers["v1n1p3"]
    (later,) = snap.papers["v1n1p3"].reference_keys
    assert later in snap.papers["v1n1p1"].reference_keys and later.internal_paper_id is None


# -- persistence ---------------------------------------------------------------

def test_round_trip_empty(tmp_path):
    corpus = Corpus([], [], [])
    path = tmp_path / "empty.corpus"
    persist_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_round_trip_random(tmp_path):
    corpus = random_corpus(random.Random(4))
    path = tmp_path / "c.corpus"
    persist_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    assert record_links(loaded) == record_links(corpus)


def record_links(corpus):
    """Every author-paper and citing paper-key link the records hold, sorted."""
    return (sorted((a, pid) for pid, p in corpus.papers.items() for a in p.author_ids),
            sorted((pid, r.key) for pid, p in corpus.papers.items() for r in p.reference_keys))


def test_persist_is_deterministic(tmp_path):
    corpus = random_corpus(random.Random(4))
    a, b = tmp_path / "a", tmp_path / "b"
    persist_corpus(corpus, a)
    persist_corpus(load_corpus(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_reads_indented_layout(tmp_path):
    # the same JSON pretty-printed, as after a hand edit, still loads
    corpus = random_corpus(random.Random(4))
    path = tmp_path / "c.corpus"
    persist_corpus(corpus, path)
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    indented = json.dumps(json.loads(body), sort_keys=True, indent=1)
    assert header == "journet-corpus v2" and indented != body.rstrip("\n")
    path.write_text(header + "\n" + indented + "\n", encoding="utf-8")
    assert load_corpus(path) == corpus


def test_persist_writes_tables_of_rows_and_one_row_per_cited_work(tmp_path):
    corpus = Corpus(
        [make_paper("v1n1p1", [10], refs=["b work", ("a work", "v1n1p2")]),
         make_paper("v1n1p2", [11, 10], pacs=["64.60.Cn", "05.50.+q"], refs=["b work", "c work"])],
        [AuthorRecord(10, "Ann", frozenset({2, 1})), AuthorRecord(11, "Bob", frozenset())],
        [AffiliationRecord(1, "Institute A", "UA"), AffiliationRecord(2, "Institute B")],
    )
    path = tmp_path / "c.corpus"
    persist_corpus(corpus, path)
    header, body, end = path.read_text(encoding="utf-8").split("\n")
    assert (header, end) == ("journet-corpus v2", "")
    assert json.loads(body) == {
        "affiliations": {"fields": ["affiliation_id", "name", "country"],
                         "rows": [[1, "Institute A", "UA"], [2, "Institute B", None]]},
        "authors": {"fields": ["author_id", "name", "affiliation_ids"],
                    "rows": [[10, "Ann", [1, 2]], [11, "Bob", []]]},
        "papers": {"fields": ["paper_id", "title", "volume", "issue", "year", "author_ids",
                              "pacs_codes", "reference_keys"],
                   "rows": [["v1n1p1", "On v1n1p1", 1, 1, None, [10], [], [0, 1]],
                            ["v1n1p2", "On v1n1p2", 1, 1, None, [11, 10],
                             ["05.50.+q", "64.60.Cn"], [1, 2]]]},
        # each cited work once, in order of first citation
        "works": {"fields": ["key", "internal_paper_id"],
                  "rows": [["a work", "v1n1p2"], ["b work", None], ["c work", None]]},
    }
    assert body == json.dumps(json.loads(body), sort_keys=True, separators=(",", ":"))  # compact


def test_load_shares_each_cited_work_among_the_papers_citing_it(tmp_path):
    corpus = Corpus(
        [make_paper("v1n1p1", [10], refs=["shared work"]),
         make_paper("v1n1p2", [10], refs=["own work", "shared work"]),
         make_paper("v1n2p1", [10], refs=[("first paper", "v1n1p1"), "shared work"])],
        make_authors([10]),
    )
    path = tmp_path / "c.corpus"
    persist_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    (one,), (_, two), (_, three) = (p.reference_keys for p in loaded.papers.values())
    assert one.key == "shared work" and one is two is three


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.corpus"
    path.write_text("journet-corpus v999\n{}\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="journet-corpus v2.*v999"):
        load_corpus(path)


def test_load_refuses_a_v1_file_and_asks_to_ingest_again(tmp_path, capsys):
    path = tmp_path / "old.corpus"
    path.write_text('journet-corpus v1\n{"affiliations": [], "authors": [], "papers": []}\n',
                    encoding="utf-8")
    message = ("expected format header 'journet-corpus v2', found 'journet-corpus v1';"
               " re-run `journet ingest` to write it")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
        load_corpus(path)
    assert main(["stats", "--corpus", str(path), "--layer", "coauthorship"]) == 2
    assert capsys.readouterr().err == f"journet: error: {message}\n"


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.corpus"
    path.write_text("journet-corpus v2\nnot json\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="corrupt"):
        load_corpus(path)


def test_load_rejects_semantically_broken_corpus(tmp_path):
    # hand-edited file: the paper cites an author with no record
    corpus = Corpus([make_paper("v1n1p1", [10, 999])], make_authors([10]))
    path = tmp_path / "broken.corpus"
    persist_corpus(corpus, path)
    with pytest.raises(CorpusFormatError, match="dangling-author"):
        load_corpus(path)


# The table of each record kind in a persisted corpus, and each kind's fields.
RECORD_TABLES = {"paper": "papers", "reference": "works", "author": "authors",
                 "affiliation": "affiliations"}
RECORD_FIELDS = {
    "paper": ["paper_id", "title", "volume", "issue", "year", "author_ids", "pacs_codes",
              "reference_keys"],
    "reference": ["key", "internal_paper_id"],
    "author": ["author_id", "name", "affiliation_ids"],
    "affiliation": ["affiliation_id", "name", "country"],
}


def persisted_payload(tmp_path):
    """A persisted corpus: papers v1n1p1 and v1n2p1, which cites works rows
    0 ("cited work", in-journal) and 1 ("other work"); author 10 at affiliation 1."""
    corpus = Corpus(
        [make_paper("v1n1p1", [10], pacs=["05.50.+q"]),
         make_paper("v1n2p1", [10], refs=[("cited work", "v1n1p1"), "other work"])],
        [AuthorRecord(10, "Ann", frozenset({1}))],
        [AffiliationRecord(1, "Institute A", "UA")],
    )
    path = tmp_path / "c.corpus"
    persist_corpus(corpus, path)
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    return path, header, json.loads(body)


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, fields in RECORD_FIELDS.items() for field in fields
])
def test_load_rejects_record_with_missing_field(tmp_path, kind, field):
    # the field gone from the table's names and from every row alike
    path, header, payload = persisted_payload(tmp_path)
    table = payload[RECORD_TABLES[kind]]
    i = table["fields"].index(field)
    for values in [table["fields"], *table["rows"]]:
        del values[i]
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError, match=rf"^corrupt corpus file: {RECORD_TABLES[kind]}"
                                                rf" fields \[.*\] are not \[.*'{field}'.*\]$"):
        load_corpus(path)


@pytest.mark.parametrize("kind", RECORD_TABLES)
def test_load_rejects_record_with_unknown_field(tmp_path, kind):
    path, header, payload = persisted_payload(tmp_path)
    table = payload[RECORD_TABLES[kind]]
    table["fields"].append("note")
    for row in table["rows"]:
        row.append("not a field")
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError, match=f"^corrupt corpus file: {RECORD_TABLES[kind]}"
                                                r" fields \[.*'note'\] are not \["):
        load_corpus(path)


@pytest.mark.parametrize("kind", RECORD_TABLES)
def test_load_rejects_table_that_names_its_fields_out_of_order(tmp_path, kind):
    path, header, payload = persisted_payload(tmp_path)
    table = payload[RECORD_TABLES[kind]]
    table["fields"].reverse()
    for row in table["rows"]:
        row.reverse()
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError, match=f"^corrupt corpus file: {RECORD_TABLES[kind]} fields"):
        load_corpus(path)


@pytest.mark.parametrize("kind, edit", [
    (kind, edit) for kind in RECORD_TABLES for edit in ("short", "long", "object")
])
def test_load_rejects_row_of_the_wrong_length(tmp_path, kind, edit):
    path, header, payload = persisted_payload(tmp_path)
    table = payload[RECORD_TABLES[kind]]
    row = table["rows"][0]
    if edit == "short":
        row.pop()
    elif edit == "long":
        row.append(None)
    else:
        table["rows"][0] = dict(zip(table["fields"], row))
    rewrite(path, header, payload)
    message = (f"corrupt corpus file: {RECORD_TABLES[kind]} row 0 is not a list of"
               f" {len(RECORD_FIELDS[kind])} values")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
        load_corpus(path)


def list_true_as_author(payload):
    """Paper v1n1p1 lists ``true`` as an author while author 1 is on record."""
    authors = payload["authors"]["rows"]
    authors.append(list(authors[0]))
    record(payload, "authors", 1)["author_id"] = 1
    record(payload, "papers", 0)["author_ids"].append(True)


# A field of the wrong JSON type in a hand-edited file, and the violation naming its record.
WRONG_TYPES = {
    "paper-id": (lambda payload: record(payload, "papers", 0).update(paper_id=5),
                 "bad-paper-id [5]: paper id 5 does not match"),
    "pacs-code": (lambda payload: record(payload, "papers", 0).update(pacs_codes=["05.50.+q", 5]),
                  "bad-pacs [v1n1p1]: PACS code 5 is not NN.NN.xx"),
    "author-id": (lambda payload: record(payload, "authors", 0).update(author_id="x"),
                  "bad-author-id [x]: author id 'x' is not an integer"),
    "ref-key": (lambda payload: record(payload, "works", 0).update(key=5),
                "bad-ref-key [v1n2p1]: reference key 5 is not text"),
    "title": (lambda payload: record(payload, "papers", 0).update(title=5),
              "bad-field [v1n1p1]: title 5 is not text"),
    "year": (lambda payload: record(payload, "papers", 0).update(year="x"),
             "bad-field [v1n1p1]: year 'x' is not an integer"),
    "volume-bool": (lambda payload: record(payload, "papers", 0).update(volume=True),
                    "bad-field [v1n1p1]: volume True is not an integer"),
    "volume-text": (lambda payload: record(payload, "papers", 0).update(volume="1"),
                    "bad-field [v1n1p1]: volume '1' is not an integer"),
    "issue": (lambda payload: record(payload, "papers", 0).update(issue=1.0),
              "bad-field [v1n1p1]: issue 1.0 is not an integer"),
    "author-name": (lambda payload: record(payload, "authors", 0).update(name=7),
                    "bad-field [10]: name 7 is not text"),
    "author-id-in-paper": (list_true_as_author,
                           "bad-author-id [v1n1p1]: author id True is not an integer"),
    "affiliation-id-of-author": (  # affiliation 1 is on record
        lambda payload: record(payload, "authors", 0).update(affiliation_ids=[True]),
        "bad-affiliation-id [10]: affiliation id True is not an integer"),
    "affiliation-id": (
        lambda payload: record(payload, "affiliations", 0).update(affiliation_id="1"),
        "bad-affiliation-id [1]: affiliation id '1' is not an integer"),
    "affiliation-name": (lambda payload: record(payload, "affiliations", 0).update(name=None),
                         "bad-field [1]: affiliation name None is not text"),
    "country": (lambda payload: record(payload, "affiliations", 0).update(country=44),
                "bad-field [1]: country 44 is not text"),
}


def test_validate_shows_values_where_id_and_columns_disagree():
    paper = replace(make_paper("v1n1p1", [10]), volume="1")
    report = validate_corpus(Corpus([paper], make_authors([10])))
    assert [(v.kind, v.message) for v in report.violations] == [
        ("bad-field", "volume '1' is not an integer"),
        ("bad-paper-id", "id encodes volume 1, issue 1 but record says volume '1', issue 1"),
    ]


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_load_rejects_field_of_wrong_type(tmp_path, capsys, case):
    edit, message = WRONG_TYPES[case]
    path, header, payload = persisted_payload(tmp_path)
    edit(payload)
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError, match=re.escape(f"fails validation: {message}")):
        load_corpus(path)
    assert main(["stats", "--corpus", str(path), "--layer", "coauthorship"]) == 2
    assert capsys.readouterr().err.startswith(f"journet: error: corpus file fails validation: {message}")


# A list in a hand-edited file that repeats an entry, which a set field would
# drop without a word, and the record and entry the load error names.
REPEATED_ENTRIES = {
    "pacs-code": (lambda payload: record(payload, "papers", 0)["pacs_codes"].append("05.50.+q"),
                  "paper_id v1n1p1: pacs_codes repeats '05.50.+q'"),
    "true-beside-1": (  # True == 1, so a set keeps one of them
        lambda payload: record(payload, "authors", 0)["affiliation_ids"].append(True),
        "author_id 10: affiliation_ids repeats True"),
}


@pytest.mark.parametrize("case", REPEATED_ENTRIES)
def test_load_rejects_list_that_repeats_an_entry(tmp_path, case):
    edit, message = REPEATED_ENTRIES[case]
    path, header, payload = persisted_payload(tmp_path)
    edit(payload)
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError, match=f"^corrupt corpus file: {re.escape(message)}$"):
        load_corpus(path)


# A list field holding another JSON value in a hand-edited file, which a
# converter would read as the characters or keys of that value.
LIST_FIELDS = {
    "author_ids": ("papers", 0, "paper_id v1n1p1"),
    "pacs_codes": ("papers", 0, "paper_id v1n1p1"),
    "reference_keys": ("papers", 1, "paper_id v1n2p1"),
    "affiliation_ids": ("authors", 0, "author_id 10"),
}


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}={json.dumps(value)}")
    for field, value in [*((field, value) for field in LIST_FIELDS for value in ("", {})),
                         ("pacs_codes", "05.50.+q"), ("author_ids", "10"),
                         ("affiliation_ids", 1), ("reference_keys", None)]
])
def test_load_rejects_list_field_that_is_not_a_list(tmp_path, field, value):
    table, position, name = LIST_FIELDS[field]
    path, header, payload = persisted_payload(tmp_path)
    record(payload, table, position)[field] = value
    rewrite(path, header, payload)
    message = f"corrupt corpus file: {name}: {field} is not a list"
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
        load_corpus(path)


# A reference that is no row number of works (two rows), in a hand-edited
# file: ``true`` is not row 1 and -1 is not the last row.
@pytest.mark.parametrize("entry", [True, False, -1, 2, 1.0, "1", None, [1]],
                         ids=lambda entry: json.dumps(entry))
def test_load_rejects_reference_that_is_not_a_works_row(tmp_path, entry):
    path, header, payload = persisted_payload(tmp_path)
    record(payload, "papers", 1)["reference_keys"] = [0, 1, entry]
    rewrite(path, header, payload)
    message = f"corrupt corpus file: paper_id v1n2p1: reference_keys entry {entry!r} is not a works row"
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
        load_corpus(path)


def test_load_rejects_works_row_no_paper_cites(tmp_path):
    path, header, payload = persisted_payload(tmp_path)
    payload["works"]["rows"].insert(1, ["lost work", None])
    record(payload, "papers", 1)["reference_keys"] = [0, 2]
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError,
                       match=r"^corrupt corpus file: works row 1 is cited by no paper$"):
        load_corpus(path)


def test_load_rejects_works_row_that_repeats_another(tmp_path):
    # each copy cited by a paper of its own, so the key is not repeated within one paper
    path, header, payload = persisted_payload(tmp_path)
    works = payload["works"]["rows"]
    works.append(list(works[1]))
    record(payload, "papers", 0)["reference_keys"].append(2)
    rewrite(path, header, payload)
    message = "corrupt corpus file: works row ['other work', None] is listed twice"
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
        load_corpus(path)


@pytest.mark.parametrize("edits, problem", [
    (dict(papers=PAPERS.replace("05.50.+q;64.60.Cn", "05.50.+q;64.60.Cn;05.50.+q")),
     "papers.csv:2: PACS code '05.50.+q' listed twice"),
    (dict(authors=AUTHORS.replace("11,Bob,1;2", "11,Bob,1;2;01")),
     "authors.csv:3: affiliation id 1 listed twice"),
], ids=["pacs-code", "affiliation-id"])
def test_ingest_rejects_cell_that_repeats_an_entry(tmp_path, edits, problem):
    with pytest.raises(IngestError) as info:
        ingest(tmp_path, **edits)
    assert info.value.problems == [problem]


def test_validate_flags_duplicate_ref_key(tmp_path):
    paper = make_paper("v1n1p1", [10], refs=["cited work", "cited work", "other work"])
    report = validate_corpus(Corpus([paper], make_authors([10])))
    assert [(v.kind, v.subject, v.message) for v in report.violations] == [
        ("duplicate-ref-key", "v1n1p1", "reference key 'cited work' listed twice")]
    path, header, payload = persisted_payload(tmp_path)
    refs = record(payload, "papers", 1)["reference_keys"]
    refs.append(refs[0])  # the paper cites its first works row again
    rewrite(path, header, payload)
    with pytest.raises(CorpusFormatError, match=r"duplicate-ref-key \[v1n2p1\]"):
        load_corpus(path)


def test_authors_by_pacs_lists_authors_on_record_once():
    corpus = Corpus(
        [make_paper("v1n1p1", [2, 1, 2, 9], pacs=["01.10.Aa", "02.20.Bb"]),
         make_paper("v1n1p2", [9], pacs=["02.20.Bb", "03.30.Cc"]),
         make_paper("v1n2p1", [3, 1], pacs=["01.10.Aa"])],
        make_authors([1, 2, 3]),
    )
    # author 9 has no record, so neither they nor the code only they use are numbered
    ids, far = _ends(corpus, _LAYERS[Layer.AUTHOR_COMMON_PACS][0])
    assert ids == ([1, 2, 3], ["01.10.Aa", "02.20.Bb"])
    assert far == ([[0, 1], [0, 1], [0]], [[0, 1, 2], [0, 1]])


def test_citing_index_lists_a_paper_once_per_cited_paper():
    corpus = Corpus(
        [make_paper("v1n1p1", [1], refs=[("gone", "v9n9p9")]),
         make_paper("v1n2p1", [1], refs=[("a", "v1n1p1"), ("b", "v1n1p1"), "c"])],
        make_authors([1]),
    )
    ids, far = _ends(corpus, _LAYERS[Layer.PAPER_CITATION][0])
    # one numbering for citing and cited papers, the cited paper without a record too
    assert ids == (["v1n1p1", "v1n2p1", "v9n9p9"],) * 2 and ids[0] is ids[1]
    assert far == ([[2], [0], []], [[1], [], [0]])
