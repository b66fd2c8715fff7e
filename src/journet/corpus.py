"""Journal metadata store: papers, authors, affiliations, cited works.

Ingestion reads five CSV tables, validates everything up front and
returns an immutable, fully cross-referenced corpus.  Paper ids encode
publication time as "v{volume}n{issue}p{seq}", which stands in for
dates: time slicing works on (volume, issue) pairs.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple

_TIME_INDEX = r"v([1-9][0-9]*)n([1-9][0-9]*)"  # positive volume and issue, no leading zeros
PAPER_ID_RE = re.compile(_TIME_INDEX + r"p(0|[1-9][0-9]*)")  # the canonical paper id, to fullmatch
PACS_RE = re.compile(r"^[0-9]{2}\.[0-9]{2}\.[0-9A-Za-z+\-]{2}$")

FORMAT_HEADER = "journet-corpus v2"
_V1_HEADER = "journet-corpus v1"  # no longer read: such a file is ingested again


class IngestError(ValueError):
    """Fatal ingestion problem; carries every issue found, no partial corpus."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CorpusFormatError(ValueError):
    """Persisted corpus file is unreadable or has the wrong format version."""


def ascii_int(text: str) -> int:
    """``int(text)``, less the ``"1_0"`` and other scripts' digits that ``int`` also reads."""
    if not text.strip().isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_paper_id(paper_id: str) -> tuple[int, int, int]:
    """Split a canonical paper id into (volume, issue, seq) or raise ValueError."""
    m = isinstance(paper_id, str) and PAPER_ID_RE.fullmatch(paper_id)
    if not m:
        raise ValueError(f"paper id {paper_id!r} does not match v<vol>n<issue>p<seq>"
                         " (positive volume and issue, no leading zeros)")
    return tuple(map(int, m.groups()))


def normalize_ref_key(raw: str) -> str:
    """Canonical citation key: trimmed, single-spaced, case-folded."""
    return " ".join(raw.split()).casefold()


class TimeIndex(NamedTuple):
    """(volume, issue) pair ordered like publication time."""

    volume: int
    issue: int

    @classmethod
    def parse(cls, token: str) -> "TimeIndex":
        m = re.fullmatch(_TIME_INDEX, token)
        if not m:
            raise ValueError(
                f"time index {token!r} does not match v<vol>n<issue> (positive, no leading zeros)"
            )
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self):
        return f"v{self.volume}n{self.issue}"


@dataclass(frozen=True)
class ReferenceKey:
    """One cited work: normalized key text, plus the paper id when in-journal."""

    key: str
    internal_paper_id: str | None = None


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    title: str
    volume: int
    issue: int
    year: int | None
    author_ids: tuple[int, ...]
    pacs_codes: frozenset[str]
    reference_keys: tuple[ReferenceKey, ...]

    @property
    def time_index(self) -> TimeIndex:
        return TimeIndex(self.volume, self.issue)


@dataclass(frozen=True)
class AuthorRecord:
    author_id: int
    name: str
    affiliation_ids: frozenset[int]


@dataclass(frozen=True)
class AffiliationRecord:
    affiliation_id: int
    name: str
    country: str | None = None


@dataclass(frozen=True)
class Violation:
    """One broken record rule, shown as ``kind [subject]: message``.
    ``subject`` is the id of the record that breaks it, as the record holds
    it; ``item`` is the offending author id, PACS code, reference key or
    affiliation id inside that record, or None when the rule is about the
    record itself.  Ingest uses the pair to find the CSV row."""

    kind: str
    subject: str | int
    message: str
    item: object = None

    def __str__(self):
        return f"{self.kind} [{self.subject}]: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> list[str]:
        return [v.kind for v in self.violations]


class Corpus:
    """Immutable record store: papers, authors and affiliations by id, each
    table in id order whatever order its records come in.

    A corpus is never mutated: ingest, load and snapshot each build a new
    one from its records.  Its one private memo holds what ``layers``
    derives from the records on first use, each relation's two-way index
    and each built layer, for as long as the corpus lives (see
    ``layers.build_layer``).
    """

    def __init__(
        self,
        papers: Iterable[PaperRecord],
        authors: Iterable[AuthorRecord],
        affiliations: Iterable[AffiliationRecord] = (),
    ):
        self.papers: dict[str, PaperRecord] = _by_id(papers, "paper")
        self.authors: dict[int, AuthorRecord] = _by_id(authors, "author")
        self.affiliations: dict[int, AffiliationRecord] = _by_id(affiliations, "affiliation")
        self._memo: dict = {}  # filled by layers: each relation's index and each built layer

    @property
    def paper_count(self) -> int:
        return len(self.papers)

    @property
    def author_count(self) -> int:
        return len(self.authors)

    def time_indexes(self) -> list[TimeIndex]:
        """Distinct (volume, issue) pairs present, ascending."""
        return sorted({p.time_index for p in self.papers.values()})

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.papers == other.papers
            and self.authors == other.authors
            and self.affiliations == other.affiliations
        )

    def __repr__(self):
        return (
            f"<Corpus papers={len(self.papers)} authors={len(self.authors)}"
            f" affiliations={len(self.affiliations)}>"
        )


def _by_id(records: Iterable, kind: str) -> dict:
    """Key records by their ``<kind>_id`` field in id order; a repeated id is a
    ValueError, naming the first repeat in the order the records came."""
    records, id_of = list(records), attrgetter(f"{kind}_id")
    ordered = _sorted(records, id_of)
    table = dict(zip(map(id_of, ordered), ordered))
    if len(table) < len(records):
        raise ValueError(f"duplicate {kind} id {_repeats(map(id_of, records))[0]}")
    return table


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """List every invariant violation; an empty report means the corpus is valid.

    Read-only: violations are data, not exceptions.  This is the one
    statement of the record rules, for ingest and load alike.  Violations
    come table by table, each table read in its own id order.  Each
    violation names its record and, for a rule about one entry of it, the
    offending ``item``.  A field of the wrong type, as a hand-edited corpus
    file may hold, is a violation too.  A PACS code is judged once however
    many papers list it, and reported for each of them.
    """
    out: list[Violation] = []
    codes = set().union(*(paper.pacs_codes for paper in corpus.papers.values()))
    bad_codes = {code for code in codes if not (isinstance(code, str) and PACS_RE.fullmatch(code))}

    def bad(kind, subject, message, item=None):
        out.append(Violation(kind, subject, message, item))

    for fid, affiliation in corpus.affiliations.items():
        if type(fid) is not int:
            bad("bad-affiliation-id", fid, f"affiliation id {fid!r} is not an integer")
        if type(affiliation.name) is not str:
            bad("bad-field", fid, f"affiliation name {affiliation.name!r} is not text")
        if affiliation.country is not None and type(affiliation.country) is not str:
            bad("bad-field", fid, f"country {affiliation.country!r} is not text")

    # Authors before papers: a wrong-typed author id also leaves its papers' authors dangling.
    for aid, author in corpus.authors.items():
        if type(aid) is not int:
            bad("bad-author-id", aid, f"author id {aid!r} is not an integer")
        if type(author.name) is not str:
            bad("bad-field", aid, f"name {author.name!r} is not text")
        for fid in _sorted(author.affiliation_ids):
            if type(fid) is not int:  # True == 1 would pass the lookup
                bad("bad-affiliation-id", aid, f"affiliation id {fid!r} is not an integer", fid)
            elif fid not in corpus.affiliations:
                bad("dangling-affiliation", aid, f"affiliation {fid} has no record", fid)

    for pid, paper in corpus.papers.items():
        if type(paper.title) is not str:
            bad("bad-field", pid, f"title {paper.title!r} is not text")
        if type(paper.volume) is not int:
            bad("bad-field", pid, f"volume {paper.volume!r} is not an integer")
        if type(paper.issue) is not int:
            bad("bad-field", pid, f"issue {paper.issue!r} is not an integer")
        if paper.year is not None and type(paper.year) is not int:
            bad("bad-field", pid, f"year {paper.year!r} is not an integer")
        try:
            vol, iss, _ = parse_paper_id(pid)
            if (vol, iss) != (paper.volume, paper.issue):
                bad("bad-paper-id", pid, f"id encodes volume {vol}, issue {iss} but record"
                                         f" says volume {paper.volume!r}, issue {paper.issue!r}")
        except ValueError as exc:
            bad("bad-paper-id", pid, str(exc))
        if not paper.author_ids:
            bad("no-authors", pid, "paper has an empty author list")
        seen: set[int] = set()
        for aid in paper.author_ids:
            if type(aid) is not int:  # True == 1 would pass the lookups
                bad("bad-author-id", pid, f"author id {aid!r} is not an integer", aid)
                continue
            if aid in seen:
                bad("duplicate-author", pid, f"author {aid} listed twice", aid)
            seen.add(aid)
            if aid not in corpus.authors:
                bad("dangling-author", pid, f"author {aid} has no record", aid)
        if not bad_codes.isdisjoint(paper.pacs_codes):
            for code in _sorted(paper.pacs_codes):
                if code in bad_codes:
                    bad("bad-pacs", pid, f"PACS code {code!r} is not NN.NN.xx", code)
        keys: set[str] = set()
        for ref in paper.reference_keys:
            if not isinstance(ref.key, str):
                bad("bad-ref-key", pid, f"reference key {ref.key!r} is not text", ref.key)
            elif not ref.key:
                bad("empty-ref-key", pid, "reference with empty key", ref.key)
            elif ref.key in keys:
                bad("duplicate-ref-key", pid, f"reference key {ref.key!r} listed twice", ref.key)
            keys.add(ref.key)
            if ref.internal_paper_id is not None:
                if ref.internal_paper_id not in corpus.papers:
                    bad("dangling-internal-ref", pid,
                        f"cited paper {ref.internal_paper_id!r} has no record", ref.key)
                elif ref.internal_paper_id == pid:
                    bad("self-citation", pid, "paper cites itself by id", ref.key)
    return ValidationReport(out)


def _sorted(items: Iterable, key=lambda x: x) -> list:
    """Items sorted by ``key``, each key type apart where keys are of more than one type."""
    try:
        return sorted(items, key=key)
    except TypeError:  # an id of the wrong type, as a hand-edited corpus file may hold
        return sorted(items, key=lambda x: (type(key(x)).__name__, key(x)))


# -- CSV ingestion ----------------------------------------------------------

PAPERS_HEADER = ["paper_id", "title", "volume", "issue", "year", "pacs"]
AUTHORS_HEADER = ["author_id", "name", "affiliation_ids"]
AUTHORSHIP_HEADER = ["paper_id", "author_id", "position"]
REFERENCES_HEADER = ["citing_paper_id", "ref_key", "internal_paper_id"]
AFFILIATIONS_HEADER = ["affiliation_id", "name", "country"]


def _read_rows(path, expected_header, problems):
    """Yield ((file name, line), row) for every data row; header and arity
    checked.  A problem is a (location, text) pair, shown as ``file:line: text``."""
    name = Path(path).name
    # utf-8-sig: spreadsheet exports often prepend a BOM
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            problems.append(((name, 1), "missing header row"))
            return
        if header != expected_header:
            problems.append(((name, 1), f"bad header {header!r}, expected {expected_header!r}"))
            return
        end = reader.line_num  # a row starts on the line after the one before it ends
        for row in reader:
            where, end = (name, end + 1), reader.line_num
            if not row:
                continue
            if len(row) != len(expected_header):
                problems.append((where, f"expected {len(expected_header)} fields, got {len(row)}"))
                continue
            yield where, row


def _repeats(entries) -> list:
    """The entries equal to an earlier one, in list order (``True`` repeats 1)."""
    seen: set = set()
    return [entry for entry in entries if entry in seen or seen.add(entry)]  # add gives None


def _parse_int(text, what, where, problems, minimum=None):
    try:
        value = ascii_int(text)
    except ValueError:
        problems.append((where, f"{what} {text!r} is not an integer"))
        return None
    if minimum is not None and value < minimum:
        problems.append((where, f"{what} {value} is below {minimum}"))
        return None
    return value


def ingest_corpus(papers_file, authors_file, authorship_file, references_file,
                  affiliations_file=None) -> Corpus:
    """Build a validated corpus from the five CSV tables.

    Ingest judges only what needs a row: header and field count, an
    integer that does not parse, an author position below 1, a repeated
    primary id, author position or entry of a list cell, and an
    authorship or reference row whose paper has no row.  Every record
    rule is ``validate_corpus``'s, run once on every record built, and
    each violation is reported at the row of its subject and ``item`` as
    ``file:line: kind [subject]: message``.  An IngestError carries every
    problem found; nothing partial is returned.  Without an affiliations
    file the table is empty.  Row order never matters: authors sort by
    position, references by key.  Each distinct ``ref_key`` text is
    normalized once, and each distinct cited work is one ``ReferenceKey``
    shared by every paper citing it.
    """
    problems: list[tuple[tuple[str, int], str]] = []  # (file name, line), text
    row_of: dict = {}  # subject or (subject, item) -> (file name, line) of the row that holds it

    affiliations: dict[int, AffiliationRecord] = {}
    if affiliations_file is not None:
        for where, row in _read_rows(affiliations_file, AFFILIATIONS_HEADER, problems):
            fid = _parse_int(row[0], "affiliation_id", where, problems)
            if fid is None:
                continue
            if fid in affiliations:
                problems.append((where, f"duplicate affiliation id {fid}"))
                continue
            affiliations[fid] = AffiliationRecord(fid, row[1], row[2] or None)

    authors: dict[int, AuthorRecord] = {}
    for where, row in _read_rows(authors_file, AUTHORS_HEADER, problems):
        aid = _parse_int(row[0], "author_id", where, problems)
        fids = [_parse_int(part, "affiliation id", where, problems)
                for part in filter(None, row[2].split(";"))]
        if aid is None or None in fids:
            continue
        if aid in authors:
            problems.append((where, f"duplicate author id {aid}"))
            continue
        problems.extend((where, f"affiliation id {fid} listed twice") for fid in _repeats(fids))
        authors[aid] = AuthorRecord(aid, row[1], frozenset(fids))
        row_of.update(((aid, fid), where) for fid in fids)

    paper_rows: dict[str, tuple[str, int, int, int | None, frozenset[str]]] = {}
    for where, row in _read_rows(papers_file, PAPERS_HEADER, problems):
        pid = row[0]
        if pid in paper_rows:
            problems.append((where, f"duplicate paper id {pid}"))
            continue
        volume = _parse_int(row[2], "volume", where, problems)
        issue = _parse_int(row[3], "issue", where, problems)
        year = _parse_int(row[4], "year", where, problems) if row[4] else None
        if volume is None or issue is None or (row[4] and year is None):
            continue
        codes = list(filter(None, row[5].split(";")))
        problems.extend((where, f"PACS code {code!r} listed twice") for code in _repeats(codes))
        paper_rows[pid] = (row[1], volume, issue, year, frozenset(codes))
        row_of[pid] = where

    authorship: dict[str, dict[int, int]] = {}
    for where, row in _read_rows(authorship_file, AUTHORSHIP_HEADER, problems):
        pid = row[0]
        aid = _parse_int(row[1], "author_id", where, problems)
        pos = _parse_int(row[2], "position", where, problems, minimum=1)
        if aid is None or pos is None:
            continue
        if pid not in paper_rows:
            problems.append((where, f"unknown paper id {pid}"))
            continue
        slots = authorship.setdefault(pid, {})
        if pos in slots:
            problems.append((where, f"duplicate author position {pos} for paper {pid}"))
            continue
        slots[pos] = aid
        row_of[pid, aid] = where

    references: dict[str, list[ReferenceKey]] = {}
    keys: dict[str, str] = {}  # ref_key cell -> its normalized key
    works: dict[tuple[str, str | None], ReferenceKey] = {}  # (key, internal id) -> its one record
    for where, (pid, text, internal) in _read_rows(references_file, REFERENCES_HEADER, problems):
        if pid not in paper_rows:
            problems.append((where, f"unknown citing paper id {pid}"))
            continue
        if text not in keys:
            keys[text] = normalize_ref_key(text)
        work = keys[text], internal or None
        if work not in works:
            works[work] = ReferenceKey(*work)
        references.setdefault(pid, []).append(works[work])
        row_of[pid, work[0]] = where

    papers = []
    for pid, (title, volume, issue, year, codes) in paper_rows.items():
        slots = authorship.get(pid, {})
        refs = sorted(references.get(pid, ()), key=attrgetter("key"))
        papers.append(PaperRecord(pid, title, volume, issue, year,
                                  tuple(slots[pos] for pos in sorted(slots)), codes, tuple(refs)))
    corpus = Corpus(papers, authors.values(), affiliations.values())
    for v in validate_corpus(corpus).violations:
        problems.append((row_of.get((v.subject, v.item)) or row_of[v.subject], str(v)))
    if problems:
        raise IngestError([f"{name}:{line}: {text}" for (name, line), text in problems])
    return corpus


# -- time slicing -------------------------------------------------------------

def snapshot(corpus: Corpus, as_of: TimeIndex) -> Corpus:
    """The corpus as of (volume, issue): papers up to that index, the
    authors and affiliations they reach, and their reference lists.

    A citation whose in-journal target falls outside the snapshot keeps
    its key but loses the internal id, exactly as it would have been
    ingested before the target existed.  Each such work is one record,
    shared by the papers citing it: the one a kept paper already cites
    by key alone, else a new one.  Only a paper with such a citation
    gets a new record; every other record is the parent's own object.
    The result is itself valid, and in id order as every corpus is.
    """
    papers = [p for p in corpus.papers.values() if p.time_index <= as_of]
    known = {p.paper_id for p in papers} | {None}  # None: a work outside the journal
    cut = {ref.key for p in papers for ref in p.reference_keys if ref.internal_paper_id not in known}
    if cut:
        works = {ref.key: ref for p in papers for ref in p.reference_keys
                 if ref.internal_paper_id is None and ref.key in cut}
        works.update((key, ReferenceKey(key)) for key in cut.difference(works))
        papers = [replace(p, reference_keys=tuple(
                      ref if ref.internal_paper_id in known else works[ref.key]
                      for ref in p.reference_keys))
                  if any(ref.internal_paper_id not in known for ref in p.reference_keys) else p
                  for p in papers]

    authors = list(map(corpus.authors.__getitem__, set().union(*(p.author_ids for p in papers))))
    affiliation_ids = set().union(*(a.affiliation_ids for a in authors))
    return Corpus(papers, authors, map(corpus.affiliations.__getitem__, affiliation_ids))


# -- persistence --------------------------------------------------------------

# The tables of a corpus file, each with the record class that states its fields.
_TABLES = {"affiliations": AffiliationRecord, "authors": AuthorRecord, "papers": PaperRecord,
           "works": ReferenceKey}


def _columns(payload, name, **converters) -> list:
    """Table ``name`` as one column per field of its record, each list field
    turned by its converter, once the fields, each row's length and each list
    field's type are checked; a set shorter than its list repeats an entry."""
    names, rows = list(_TABLES[name].__dataclass_fields__), payload[name]["rows"]
    if payload[name]["fields"] != names:
        raise ValueError(f"{name} fields {payload[name]['fields']} are not {names}")
    if {*map(type, rows)} - {list} or {*map(len, rows)} - {len(names)}:
        n = next(n for n, row in enumerate(rows) if type(row) is not list or len(row) != len(names))
        raise ValueError(f"{name} row {n} is not a list of {len(names)} values")
    columns = list(zip(*rows)) or [()] * len(names)
    for field, convert in converters.items():
        i = names.index(field)
        if {*map(type, raw := columns[i])} - {list}:
            rid = next(rid for rid, value in zip(columns[0], raw) if type(value) is not list)
            raise ValueError(f"{names[0]} {rid}: {field} is not a list")
        columns[i] = list(map(convert, raw))
        if list(map(len, columns[i])) != list(map(len, raw)):
            rid, entries = next(pair for pair in zip(columns[0], raw) if _repeats(pair[1]))
            raise ValueError(f"{names[0]} {rid}: {field} repeats {_repeats(entries)[0]!r}")
    return columns


def _cited(paper_ids, cited, work_columns) -> list:
    """Each paper's cited works, each built once from its row, which no other
    row repeats; every row cited, every entry a row number (``int``, ``>= 0``)."""
    works, rows = list(map(ReferenceKey, *work_columns)), range(len(work_columns[0]))
    if len(set(zip(*work_columns))) < len(works):
        raise ValueError(f"works row {list(_repeats(zip(*work_columns))[0])!r} is listed twice")
    flat = list(chain.from_iterable(cited))
    if {*map(type, flat)} - {int} or set(flat) != set(rows):
        for pid, n in ((pid, n) for pid, entries in zip(paper_ids, cited) for n in entries):
            if type(n) is not int or n not in rows:
                raise ValueError(f"paper_id {pid}: reference_keys entry {n!r} is not a works row")
        raise ValueError(f"works row {min(set(rows).difference(flat))} is cited by no paper")
    return [tuple(map(works.__getitem__, entries)) for entries in cited]


def _rows(records, name, **converters) -> list:
    """Table ``name``'s rows: each record's values in field order, each field
    named in ``converters`` turned by it."""
    columns = []
    for field in _TABLES[name].__dataclass_fields__:
        column = map(attrgetter(field), records)
        columns.append(map(converters[field], column) if field in converters else column)
    return list(zip(*columns))


def persist_corpus(corpus: Corpus, path) -> None:
    """Write ``journet-corpus v2``, then one JSON line of four tables, each its record's field
    names once and one row of values per record, in the corpus's own id order.  ``works`` holds
    each distinct cited work once, in order of first citation; a paper's ``reference_keys`` are
    its rows.
    A work is numbered by its plain ``(key, internal_paper_id)``, so equal works share a row
    whether or not they are one object."""
    papers, work = corpus.papers.values(), attrgetter(*ReferenceKey.__dataclass_fields__)
    works = dict.fromkeys(map(work, chain.from_iterable(map(attrgetter("reference_keys"), papers))))
    row_of = dict(zip(works, range(len(works)))).__getitem__
    rows = {"affiliations": _rows(corpus.affiliations.values(), "affiliations"),
            "authors": _rows(corpus.authors.values(), "authors", affiliation_ids=sorted),
            "papers": _rows(papers, "papers", pacs_codes=sorted,
                            reference_keys=lambda refs: list(map(row_of, map(work, refs)))),
            "works": list(works)}
    payload = {name: {"fields": list(cls.__dataclass_fields__), "rows": rows[name]}
               for name, cls in _TABLES.items()}
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(FORMAT_HEADER + "\n" + body + "\n", encoding="utf-8")


def load_corpus(path) -> Corpus:
    """Read a file written by persist_corpus, building each cited work once for
    all papers citing it, then judge it with ``validate_corpus``.  Any other
    header fails (a v1 file with a word to ingest again), and so does a table
    or row unlike its record and each bad list, set or works row entry."""
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    if header != FORMAT_HEADER:
        raise CorpusFormatError(f"expected format header {FORMAT_HEADER!r}, found {header!r}"
                                + "; re-run `journet ingest` to write it" * (header == _V1_HEADER))
    try:
        payload = json.loads(body)
        columns = _columns(payload, "papers", author_ids=tuple, pacs_codes=frozenset,
                           reference_keys=tuple)
        columns[-1] = _cited(columns[0], columns[-1], _columns(payload, "works"))
        corpus = Corpus(map(PaperRecord, *columns),
                        map(AuthorRecord, *_columns(payload, "authors", affiliation_ids=frozenset)),
                        map(AffiliationRecord, *_columns(payload, "affiliations")))
        report = validate_corpus(corpus)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"corrupt corpus file: {exc}") from exc
    if not report.ok:
        raise CorpusFormatError(f"corpus file fails validation: {report.violations[0]}")
    return corpus
