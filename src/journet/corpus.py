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
from itertools import starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

PAPER_ID_RE = re.compile(r"^v(\d+)n(\d+)p(\d+)$")
PACS_RE = re.compile(r"^\d{2}\.\d{2}\.[0-9A-Za-z+\-]{2}$")

FORMAT_HEADER = "journet-corpus v1"


class IngestError(ValueError):
    """Fatal ingestion problem; carries every issue found, no partial corpus."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CorpusFormatError(ValueError):
    """Persisted corpus file is unreadable or has the wrong format version."""


def parse_paper_id(paper_id: str) -> tuple[int, int, int]:
    """Split a canonical paper id into (volume, issue, seq) or raise ValueError."""
    m = isinstance(paper_id, str) and PAPER_ID_RE.match(paper_id)
    if not m:
        raise ValueError(f"paper id {paper_id!r} does not match v<vol>n<issue>p<seq>")
    volume, issue, seq = (int(g) for g in m.groups())
    if f"v{volume}n{issue}p{seq}" != paper_id:
        raise ValueError(f"paper id {paper_id!r} is not in canonical form")
    if volume < 1 or issue < 1:
        raise ValueError(f"paper id {paper_id!r} has a non-positive volume or issue")
    return volume, issue, seq


def normalize_ref_key(raw: str) -> str:
    """Canonical citation key: trimmed, single-spaced, case-folded."""
    return " ".join(raw.split()).casefold()


class TimeIndex(NamedTuple):
    """(volume, issue) pair ordered like publication time."""

    volume: int
    issue: int

    @classmethod
    def parse(cls, token: str) -> "TimeIndex":
        m = re.fullmatch(r"v([1-9][0-9]*)n([1-9][0-9]*)", token)
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
    """Immutable record store: papers, authors and affiliations by id.

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
    """Key records by their ``<kind>_id`` field; a repeated id is a ValueError."""
    table: dict = {}
    for record in records:
        rid = getattr(record, f"{kind}_id")
        if rid in table:
            raise ValueError(f"duplicate {kind} id {rid}")
        table[rid] = record
    return table


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """List every invariant violation; an empty report means the corpus is valid.

    Read-only: violations are data, not exceptions.  This is the one
    statement of the record rules, for ingest and load alike.  Each
    violation names its record and, for a rule about one entry of it, the
    offending ``item``.  A field of the wrong type, as a hand-edited corpus
    file may hold, is a violation too.
    """
    out: list[Violation] = []

    def bad(kind, subject, message, item=None):
        out.append(Violation(kind, subject, message, item))

    for fid in _sorted(corpus.affiliations):
        affiliation = corpus.affiliations[fid]
        if type(fid) is not int:
            bad("bad-affiliation-id", fid, f"affiliation id {fid!r} is not an integer")
        if type(affiliation.name) is not str:
            bad("bad-field", fid, f"affiliation name {affiliation.name!r} is not text")
        if affiliation.country is not None and type(affiliation.country) is not str:
            bad("bad-field", fid, f"country {affiliation.country!r} is not text")

    # Authors before papers: a wrong-typed author id also leaves its papers' authors dangling.
    for aid in _sorted(corpus.authors):
        author = corpus.authors[aid]
        if type(aid) is not int:
            bad("bad-author-id", aid, f"author id {aid!r} is not an integer")
        if type(author.name) is not str:
            bad("bad-field", aid, f"name {author.name!r} is not text")
        for fid in _sorted(author.affiliation_ids):
            if type(fid) is not int:  # True == 1 would pass the lookup
                bad("bad-affiliation-id", aid, f"affiliation id {fid!r} is not an integer", fid)
            elif fid not in corpus.affiliations:
                bad("dangling-affiliation", aid, f"affiliation {fid} has no record", fid)

    for pid in _sorted(corpus.papers):
        paper = corpus.papers[pid]
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
        for code in _sorted(paper.pacs_codes):
            if not (isinstance(code, str) and PACS_RE.match(code)):
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


def _sorted(ids: Iterable) -> list:
    """Ids sorted, each type apart where they are of more than one type."""
    try:
        return sorted(ids)
    except TypeError:  # an id of the wrong type, as a hand-edited corpus file may hold
        return sorted(ids, key=lambda x: (type(x).__name__, x))


# -- CSV ingestion ----------------------------------------------------------

PAPERS_HEADER = ["paper_id", "title", "volume", "issue", "year", "pacs"]
AUTHORS_HEADER = ["author_id", "name", "affiliation_ids"]
AUTHORSHIP_HEADER = ["paper_id", "author_id", "position"]
REFERENCES_HEADER = ["citing_paper_id", "ref_key", "internal_paper_id"]
AFFILIATIONS_HEADER = ["affiliation_id", "name", "country"]


def _read_rows(path, expected_header, problems):
    """Yield ("file:line", row) for every data row; header and arity checked."""
    path = Path(path)
    # utf-8-sig: spreadsheet exports often prepend a BOM
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            problems.append(f"{path.name}:1: missing header row")
            return
        if header != expected_header:
            problems.append(
                f"{path.name}:1: bad header {header!r}, expected {expected_header!r}"
            )
            return
        for row in reader:
            if not row:
                continue
            where = f"{path.name}:{reader.line_num}"
            if len(row) != len(expected_header):
                problems.append(f"{where}: expected {len(expected_header)} fields, got {len(row)}")
                continue
            yield where, row


def _parse_int(text, what, where, problems, minimum=None):
    try:
        value = int(text)
    except ValueError:
        problems.append(f"{where}: {what} {text!r} is not an integer")
        return None
    if minimum is not None and value < minimum:
        problems.append(f"{where}: {what} {value} is below {minimum}")
        return None
    return value


def ingest_corpus(papers_file, authors_file, authorship_file, references_file,
                  affiliations_file=None) -> Corpus:
    """Build a validated corpus from the five CSV tables.

    Ingest judges only what needs a row: header and field count, an
    integer that does not parse, an author position below 1, a repeated
    primary id or author position, and an authorship or reference row
    whose paper has no row.  Every record rule is ``validate_corpus``'s,
    run once on every record built, and each violation is reported at the
    row of its subject and ``item`` as ``file:line: kind [subject]:
    message``.  An IngestError carries every problem found and nothing
    partial is returned.  Without an affiliations file the table is empty.
    Row order never matters: authors sort by position, references by key.
    """
    problems: list[str] = []
    row_of: dict = {}  # subject or (subject, item) -> "file:line" of the row that holds it

    affiliations: dict[int, AffiliationRecord] = {}
    if affiliations_file is not None:
        for where, row in _read_rows(affiliations_file, AFFILIATIONS_HEADER, problems):
            fid = _parse_int(row[0], "affiliation_id", where, problems)
            if fid is None:
                continue
            if fid in affiliations:
                problems.append(f"{where}: duplicate affiliation id {fid}")
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
            problems.append(f"{where}: duplicate author id {aid}")
            continue
        authors[aid] = AuthorRecord(aid, row[1], frozenset(fids))
        row_of.update(((aid, fid), where) for fid in fids)

    paper_rows: dict[str, tuple[str, int, int, int | None, frozenset[str]]] = {}
    for where, row in _read_rows(papers_file, PAPERS_HEADER, problems):
        pid = row[0]
        if pid in paper_rows:
            problems.append(f"{where}: duplicate paper id {pid}")
            continue
        volume = _parse_int(row[2], "volume", where, problems)
        issue = _parse_int(row[3], "issue", where, problems)
        year = _parse_int(row[4], "year", where, problems) if row[4] else None
        if volume is None or issue is None or (row[4] and year is None):
            continue
        paper_rows[pid] = (row[1], volume, issue, year, frozenset(filter(None, row[5].split(";"))))
        row_of[pid] = where

    authorship: dict[str, dict[int, int]] = {}
    for where, row in _read_rows(authorship_file, AUTHORSHIP_HEADER, problems):
        pid = row[0]
        aid = _parse_int(row[1], "author_id", where, problems)
        pos = _parse_int(row[2], "position", where, problems, minimum=1)
        if aid is None or pos is None:
            continue
        if pid not in paper_rows:
            problems.append(f"{where}: unknown paper id {pid}")
            continue
        slots = authorship.setdefault(pid, {})
        if pos in slots:
            problems.append(f"{where}: duplicate author position {pos} for paper {pid}")
            continue
        slots[pos] = aid
        row_of[pid, aid] = where

    references: dict[str, list[ReferenceKey]] = {}
    for where, row in _read_rows(references_file, REFERENCES_HEADER, problems):
        pid = row[0]
        if pid not in paper_rows:
            problems.append(f"{where}: unknown citing paper id {pid}")
            continue
        key = normalize_ref_key(row[1])
        references.setdefault(pid, []).append(ReferenceKey(key, row[2] or None))
        row_of[pid, key] = where

    papers = []
    for pid, (title, volume, issue, year, codes) in paper_rows.items():
        slots = authorship.get(pid, {})
        refs = sorted(references.get(pid, ()), key=attrgetter("key"))
        papers.append(PaperRecord(pid, title, volume, issue, year,
                                  tuple(slots[pos] for pos in sorted(slots)), codes, tuple(refs)))
    corpus = Corpus(papers, authors.values(), affiliations.values())
    for v in validate_corpus(corpus).violations:
        problems.append(f"{row_of.get((v.subject, v.item)) or row_of[v.subject]}: {v}")
    if problems:
        raise IngestError(problems)
    return corpus


# -- time slicing -------------------------------------------------------------

def snapshot(corpus: Corpus, as_of: TimeIndex) -> Corpus:
    """The corpus as of (volume, issue): papers up to that index, the
    authors and affiliations they reach, and their reference lists.

    A citation whose in-journal target falls outside the snapshot keeps
    its key but loses the internal id, exactly as it would have been
    ingested before the target existed.  Only a paper with such a
    citation gets a new record; every other record is the parent's own
    object.  The result is itself valid.
    """
    kept = {pid for pid, p in corpus.papers.items() if p.time_index <= as_of}

    papers = []
    author_ids: set[int] = set()
    for pid in sorted(kept):
        p = corpus.papers[pid]
        author_ids.update(p.author_ids)
        if any(ref.internal_paper_id not in kept
               for ref in p.reference_keys if ref.internal_paper_id is not None):
            p = replace(p, reference_keys=tuple(
                ref if ref.internal_paper_id in kept else ReferenceKey(ref.key)
                for ref in p.reference_keys))
        papers.append(p)

    authors = [corpus.authors[aid] for aid in sorted(author_ids)]
    affiliation_ids = sorted({fid for a in authors for fid in a.affiliation_ids})
    affiliations = [corpus.affiliations[fid] for fid in affiliation_ids]
    return Corpus(papers, authors, affiliations)


# -- persistence --------------------------------------------------------------

def _json_form(value):
    """What json cannot write itself: a set as a sorted list, a record as a dict."""
    if isinstance(value, frozenset):
        return sorted(value)
    return {name: getattr(value, name) for name in value.__dataclass_fields__}


def _reader(cls, **converters):
    """A function that builds a ``cls`` record from each JSON object in a
    list through the record's own constructor, once ``converters`` turn
    fields from their JSON form.  An object holds exactly the record's
    fields: a missing one fails the count or the lookup, an unknown one
    the count.  Build it once and use it for every list of its records."""
    names = tuple(cls.__dataclass_fields__)
    values_of = itemgetter(*names)
    convert = [(names.index(name), f) for name, f in converters.items()]

    def converted(values) -> list:
        values = list(values)
        for i, f in convert:
            values[i] = f(values[i])
        return values

    def read(objects) -> list:
        for fields in objects:
            if len(fields) != len(names):
                raise ValueError(f"{cls.__name__} fields {sorted(fields)} are not {sorted(names)}")
        rows = map(values_of, objects)
        return list(starmap(cls, map(converted, rows) if convert else rows))

    return read


def persist_corpus(corpus: Corpus, path) -> None:
    """Write the corpus as a single self-describing text file."""
    tables = {"papers": corpus.papers, "authors": corpus.authors, "affiliations": corpus.affiliations}
    payload = {name: [table[key] for key in sorted(table)] for name, table in tables.items()}
    body = json.dumps(payload, sort_keys=True, default=_json_form)
    Path(path).write_text(FORMAT_HEADER + "\n" + body + "\n", encoding="utf-8")


def load_corpus(path) -> Corpus:
    """Read a file written by persist_corpus; wrong version or shape fails,
    and so does a record object with a missing or unknown field."""
    text = Path(path).read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    if header != FORMAT_HEADER:
        raise CorpusFormatError(
            f"expected format header {FORMAT_HEADER!r}, found {header!r}"
        )
    try:
        payload = json.loads(body)
        read_refs = _reader(ReferenceKey)
        papers = _reader(
            PaperRecord,
            author_ids=tuple,
            pacs_codes=frozenset,
            reference_keys=lambda refs: tuple(read_refs(refs)),
        )(payload["papers"])
        authors = _reader(AuthorRecord, affiliation_ids=frozenset)(payload["authors"])
        affiliations = _reader(AffiliationRecord)(payload["affiliations"])
        corpus = Corpus(papers, authors, affiliations)
        report = validate_corpus(corpus)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"corrupt corpus file: {exc}") from exc
    if not report.ok:
        raise CorpusFormatError(f"corpus file fails validation: {report.violations[0]}")
    return corpus
