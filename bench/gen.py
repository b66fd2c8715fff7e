"""Seeded synthetic journal: the five CSV tables journet ingests.

The same (seed, size) always gives byte-identical files.  Counts that set
the cost of the pipeline are fixed by the size and drawn from exact
multisets (team sizes, new-author share, codes per paper and uses of each
code, references per paper); the seed decides who writes, cites and
classifies what.

- Authorship grows by preferential attachment: teams of 1-5 authors, 35%
  of author slots (at seeded random places) go to a new author, the rest
  to an existing author drawn in proportion to the papers they already
  wrote.
- PACS codes follow a Zipf law over 150 codes, 1-4 codes per paper.
- Each paper has 8-16 references (12 on average).  A quarter cite earlier
  papers of the journal by cumulative advantage (in proportion to
  citations received plus one); the rest cite Zipf-popular external works
  written as normalized citation strings.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

TEAM_SIZE_WEIGHTS = {1: 0.15, 2: 0.3, 3: 0.3, 4: 0.15, 5: 0.1}
NEW_AUTHOR_SHARE = 0.35
PACS_CODE_COUNT = 150
PACS_PER_PAPER_WEIGHTS = {1: 0.3, 2: 0.35, 3: 0.25, 4: 0.1}
REFS_PER_PAPER = range(8, 17)
INTERNAL_SHARE = 0.25
EXTERNAL_WORKS_PER_PAPER = 4
AFFILIATION_COUNT = 25
ZIPF_EXPONENT = 1.0

PAPERS_HEADER = ["paper_id", "title", "volume", "issue", "year", "pacs"]
AUTHORS_HEADER = ["author_id", "name", "affiliation_ids"]
AUTHORSHIP_HEADER = ["paper_id", "author_id", "position"]
REFERENCES_HEADER = ["citing_paper_id", "ref_key", "internal_paper_id"]
AFFILIATIONS_HEADER = ["affiliation_id", "name", "country"]

TABLES = ("papers", "authors", "authorship", "references", "affiliations")

_SURNAMES = (
    "holovatch kenna berche mryglod gonzalez sumour shapoval palchykov "
    "blavatska fedorak ilnytskyi kozitsky mazur olemskoi stasyuk tokarchuk "
    "vasylenko yukhnovskii zhylyak krasnytska"
).split()
_TITLE_WORDS = (
    "lattice spin glass percolation scaling criticality polymer network "
    "entropy fluctuation disorder renormalization diffusion cluster"
).split()
_JOURNALS = ("phys rev b", "phys rev e", "j phys a", "physica a", "eur phys j b", "j stat phys")
_PACS_SUFFIXES = ("+q", "-b", "cn", "ey", "gy", "fd", "fh", "jk", "-a", "de")


def _exact_counts(weights: dict[int, float], total: int, rng: random.Random) -> list[int]:
    """``total`` values whose histogram matches ``weights`` as closely as
    integer counts allow, in seeded random order."""
    values: list[int] = []
    for value, share in weights.items():
        values += [value] * round(share * total)
    values = (values + [max(weights, key=weights.get)] * total)[:total]
    rng.shuffle(values)
    return values


def _zipf_counts(n: int, total: int) -> list[int]:
    """Occurrences of each of ``n`` ranks summing to ``total``, as close to
    a Zipf law as integer counts allow."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    for rank in range(total - sum(counts)):
        counts[rank] += 1
    return counts


def _zipf_sampler(n: int, rng: random.Random):
    cum = list(accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n)))
    top = cum[-1]
    return lambda: min(bisect_left(cum, rng.random() * top), n - 1)


def _issue_layout(papers: int, issues: int) -> list[tuple[int, int, int]]:
    """(volume, issue, seq) for every paper: four issues per volume, papers
    spread as evenly as possible over ``issues`` issues."""
    layout = []
    for k in range(issues):
        volume, issue = k // 4 + 1, k % 4 + 1
        count = papers // issues + (1 if k < papers % issues else 0)
        layout += [(volume, issue, seq) for seq in range(1, count + 1)]
    return layout


def generate(seed: int, papers: int, issues: int = 20) -> dict[str, str]:
    """CSV text of each table, keyed by the names in ``TABLES``."""
    if papers < issues or issues < 1:
        raise ValueError(f"need at least one paper per issue, got {papers} papers in {issues} issues")
    rng = random.Random(seed)
    layout = _issue_layout(papers, issues)
    team_sizes = _exact_counts(TEAM_SIZE_WEIGHTS, papers, rng)
    slots = sum(team_sizes)
    new_flags = _exact_counts({True: NEW_AUTHOR_SHARE, False: 1 - NEW_AUTHOR_SHARE}, slots, rng)
    pacs_counts = _exact_counts(PACS_PER_PAPER_WEIGHTS, papers, rng)
    ref_counts = _exact_counts({k: 1.0 / len(REFS_PER_PAPER) for k in REFS_PER_PAPER}, papers, rng)

    pacs_codes = []
    for i in range(PACS_CODE_COUNT):
        pacs_codes.append(f"{5 + i // 20:02d}.{(i * 7) % 100:02d}.{_PACS_SUFFIXES[i % 10]}")
    rng.shuffle(pacs_codes)
    code_pool = [
        code for code, n in zip(pacs_codes, _zipf_counts(PACS_CODE_COUNT, sum(pacs_counts))) for _ in range(n)
    ]
    rng.shuffle(code_pool)

    works = []
    for rank in range(EXTERNAL_WORKS_PER_PAPER * papers):
        works.append(
            f"{rng.choice(_SURNAMES)} {chr(97 + rng.randrange(26))} {1950 + rng.randrange(60)}"
            f" {rng.choice(_JOURNALS)} {1 + rng.randrange(90)} {rank + 1}"
        )
    pick_work = _zipf_sampler(len(works), rng)

    author_urn: list[int] = []  # one entry per paper written
    author_count = 0
    citation_urn: list[str] = []  # one entry per paper plus one per citation
    paper_rows, authorship_rows, reference_rows = [], [], []
    slot = 0
    for i, (volume, issue, seq) in enumerate(layout):
        pid = f"v{volume}n{issue}p{seq}"
        team: list[int] = []
        earlier_authors = author_count
        for _ in range(team_sizes[i]):
            existing_picked = len(team) - (author_count - earlier_authors)
            new = new_flags[slot] or existing_picked == earlier_authors
            slot += 1
            if new:
                author_count += 1
                team.append(author_count)
                continue
            while True:
                aid = rng.choice(author_urn)
                if aid not in team:
                    team.append(aid)
                    break
        author_urn += team
        authorship_rows += [(pid, aid, pos) for pos, aid in enumerate(team, start=1)]

        codes: set[str] = set()
        j = 0
        while len(codes) < pacs_counts[i] and j < len(code_pool):
            if code_pool[j] in codes:
                j += 1
            else:
                codes.add(code_pool.pop(j))
        word = _TITLE_WORDS[rng.randrange(len(_TITLE_WORDS))]
        paper_rows.append(
            (pid, f"On the {word}, {i % 7 + 1}", volume, issue, 1990 + volume, ";".join(sorted(codes)))
        )

        refs = ref_counts[i]
        internal = min(round(INTERNAL_SHARE * refs + rng.random() - 0.5), i)
        cited: list[str] = []
        while len(cited) < internal:
            target = rng.choice(citation_urn)
            if target not in cited:
                cited.append(target)
        reference_rows += [(pid, f"journal paper {target}", target) for target in cited]
        citation_urn += cited + [pid]
        keys: list[str] = []
        while len(keys) < refs - internal:
            key = works[pick_work()]
            if key not in keys:
                keys.append(key)
        reference_rows += [(pid, key, "") for key in keys]

    author_rows = []
    for aid in range(1, author_count + 1):
        affils = sorted(rng.sample(range(1, AFFILIATION_COUNT + 1), rng.choice((0, 1, 1, 2))))
        name = f"{rng.choice(_SURNAMES).title()} {chr(65 + rng.randrange(26))}."
        author_rows.append((aid, name, ";".join(map(str, affils))))
    affiliation_rows = [
        (fid, f"Institute {fid}, Dept. of Physics", ("UA", "PL", "FR", "GB", "")[fid % 5])
        for fid in range(1, AFFILIATION_COUNT + 1)
    ]

    return {
        "papers": _csv(PAPERS_HEADER, paper_rows),
        "authors": _csv(AUTHORS_HEADER, author_rows),
        "authorship": _csv(AUTHORSHIP_HEADER, authorship_rows),
        "references": _csv(REFERENCES_HEADER, reference_rows),
        "affiliations": _csv(AFFILIATIONS_HEADER, affiliation_rows),
    }


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_tables(tables: dict[str, str], directory: Path) -> dict[str, Path]:
    """Write each table as ``<name>.csv`` under ``directory``; return the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in tables.items():
        paths[name] = directory / f"{name}.csv"
        paths[name].write_bytes(text.encode("utf-8"))
    return paths
