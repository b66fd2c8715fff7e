"""Output checks, run outside the timed region.

Every expected value here is recomputed from the generated CSV rows with
plain sets and dicts; none comes from journet itself, except where a
Pajek export is parsed back and compared with the layer it was written
from.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import deque
from itertools import combinations

AUTHOR, PAPER, PACS, REFERENCE = "author", "paper", "pacs", "reference"

# Node kinds of each layer, as the CLI tokens name them.
LAYER_KINDS = {
    "coauthorship": (AUTHOR,),
    "paper-common-author": (PAPER,),
    "paper-citation": (PAPER,),
    "paper-common-pacs": (PAPER,),
    "cocitation": (REFERENCE,),
    "coupling": (PAPER,),
    "author-common-pacs": (AUTHOR,),
    "bipartite-author-paper": (AUTHOR, PAPER),
    "bipartite-paper-pacs": (PAPER, PACS),
    "bipartite-paper-reference": (PAPER, REFERENCE),
}
ONE_MODE = tuple(token for token, kinds in LAYER_KINDS.items() if len(kinds) == 1)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


class CsvModel:
    """The generated journal as plain sets, read straight from the CSV text."""

    def __init__(self, tables: dict[str, str]):
        self.papers = sorted(row[0] for row in _rows(tables["papers"]))
        self.authors = sorted(int(row[0]) for row in _rows(tables["authors"]))
        self.issues = {(int(row[2]), int(row[3])) for row in _rows(tables["papers"])}
        self.codes = {row[0]: set(filter(None, row[5].split(";"))) for row in _rows(tables["papers"])}
        self.team: dict[str, list[tuple[int, int]]] = {p: [] for p in self.papers}
        for pid, aid, pos in _rows(tables["authorship"]):
            self.team[pid].append((int(pos), int(aid)))
        self.team = {p: [a for _, a in sorted(t)] for p, t in self.team.items()}
        self.keys: dict[str, set[str]] = {p: set() for p in self.papers}
        self.arcs: set[tuple[str, str]] = set()
        for citing, key, internal in _rows(tables["references"]):
            self.keys[citing].add(" ".join(key.split()).casefold())
            if internal:
                self.arcs.add((citing, internal))
        self.reference_rows = sum(len(k) for k in self.keys.values())
        self._layers: dict[str, tuple[list, dict]] = {}
        self._adj: dict[str, dict] = {}

    def _groups(self, layer: str) -> tuple[list, list[list]]:
        """Nodes of a projected layer and the groups whose members pairwise link."""
        if layer == "coauthorship":
            return self.authors, list(self.team.values())
        if layer == "cocitation":
            nodes = sorted(set().union(*self.keys.values()))
            return nodes, [sorted(k) for k in self.keys.values()]
        if layer == "author-common-pacs":
            by_code: dict[str, set[int]] = {}
            for pid, team in self.team.items():
                for code in self.codes[pid]:
                    by_code.setdefault(code, set()).update(team)
            return self.authors, [sorted(g) for g in by_code.values()]
        attribute = {
            "paper-common-author": lambda p: self.team[p],
            "paper-common-pacs": lambda p: self.codes[p],
            "coupling": lambda p: self.keys[p],
        }[layer]
        members: dict[object, list[str]] = {}
        for pid in self.papers:
            for value in attribute(pid):
                members.setdefault(value, []).append(pid)
        return self.papers, list(members.values())

    def layer(self, layer: str) -> tuple[list, dict]:
        """(nodes, {(u, v): weight}) of a one-mode layer; u < v except for
        the directed citation layer, whose pairs are (citing, cited)."""
        if layer not in self._layers:
            if layer == "paper-citation":
                self._layers[layer] = (self.papers, {arc: 1 for arc in self.arcs})
            else:
                nodes, groups = self._groups(layer)
                weights: dict[tuple, int] = {}
                for group in groups:
                    for u, v in combinations(sorted(set(group)), 2):
                        weights[u, v] = weights.get((u, v), 0) + 1
                self._layers[layer] = (nodes, weights)
        return self._layers[layer]

    def size(self, layer: str) -> tuple[int, int]:
        """(node count, link count) of any layer."""
        if layer in ONE_MODE:
            nodes, links = self.layer(layer)
            return len(nodes), len(links)
        if layer == "bipartite-author-paper":
            return len(self.authors) + len(self.papers), sum(len(t) for t in self.team.values())
        if layer == "bipartite-paper-pacs":
            used = set().union(*self.codes.values())
            return len(self.papers) + len(used), sum(len(c) for c in self.codes.values())
        keys = set().union(*self.keys.values())
        return len(self.papers) + len(keys), self.reference_rows

    def row(self, layer: str, seed) -> dict:
        """Neighbours of ``seed`` with link weights; citations count both ways."""
        if layer not in self._adj:
            adj: dict = {}
            for (u, v), w in self.layer(layer)[1].items():
                adj.setdefault(u, {})[v] = adj.get(u, {}).get(v, 0) + w
                adj.setdefault(v, {})[u] = adj.get(v, {}).get(u, 0) + w
            self._adj[layer] = adj
        return self._adj[layer].get(seed, {})

    def components(self, layer: str) -> int:
        nodes, links = self.layer(layer)
        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in links:
            parent[find(u)] = find(v)
        return len({find(n) for n in nodes})

    def ball(self, layer: str, seed, depth: int) -> dict:
        """Hop distance of every node within ``depth`` of the seed, seed excluded."""
        dist = {seed: 0}
        queue = deque([seed])
        while queue:
            u = queue.popleft()
            if dist[u] < depth:
                for v in self.row(layer, u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
        del dist[seed]
        return dist


def expected_rank(model: CsvModel, layers: list[str], seed) -> list[tuple]:
    """(id, layer count, weight sum) rows in related_rank's order."""
    counts: dict = {}
    weights: dict = {}
    for layer in layers:
        for node, w in model.row(layer, seed).items():
            counts[node] = counts.get(node, 0) + 1
            weights[node] = weights.get(node, 0) + w
    return sorted(((n, counts[n], weights[n]) for n in counts), key=lambda r: (-r[1], -r[2], r[0]))


def expected_overlap(model: CsvModel, layers: list[str], seed) -> set:
    return set.intersection(*(set(model.row(layer, seed)) for layer in layers))


# -- checks of CLI outputs --------------------------------------------------

def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines())


def check_stats(model: CsvModel, layer: str, stdout: str) -> list[str]:
    report = _kv(stdout)
    nodes, links = model.size(layer)
    got = (int(report.get("nodes", -1)), int(report.get("links", -1)))
    problems = [] if got == (nodes, links) else [f"stats {layer}: nodes/links {got} != {(nodes, links)}"]
    components = model.components(layer)
    if int(report.get("components", -1)) != components:
        problems.append(f"stats {layer}: components {report.get('components')} != {components}")
    return problems


def check_distribution(model: CsvModel, layer: str, text: str) -> list[str]:
    rows = [(int(k), int(c)) for k, c, _ in _rows(text)]
    nodes, links = model.size(layer)
    if sum(c for _, c in rows) != nodes or sum(k * c for k, c in rows) != 2 * links:
        return [f"distribution {layer}: counts do not sum to {nodes} nodes and {links} links"]
    return []


def check_evolution(model: CsvModel, text: str, final_stats: str | None) -> list[str]:
    rows = _rows(text)
    problems = []
    if sorted((int(v), int(i)) for v, i, _ in rows) != sorted(model.issues):
        problems.append("evolution: rows do not match the issues in papers.csv")
    if any(not 0.0 <= float(value) <= 1.0 for _, _, value in rows):
        problems.append("evolution: clustering outside [0, 1]")
    if final_stats is not None and rows and rows[-1][2] != _kv(final_stats).get("mean_clustering"):
        problems.append("evolution: last snapshot disagrees with stats on the full corpus")
    return problems


def check_pajek(model: CsvModel, layer: str, text: str, parsed_equals_built: bool) -> list[str]:
    lines = text.splitlines()
    try:
        vertices = int(lines[0].split()[1])
        links = len(lines) - vertices - 2
    except (IndexError, ValueError):
        return [f"export pajek {layer}: unreadable header"]
    problems = []
    if (vertices, links) != model.size(layer):
        problems.append(f"export pajek {layer}: {(vertices, links)} != {model.size(layer)}")
    if not parsed_equals_built:
        problems.append(f"export pajek {layer}: parsed file differs from build_layer")
    return problems


def check_adjacency(model: CsvModel, text: str) -> list[str]:
    rows = _rows(text)
    nodes, links = model.size("coauthorship")
    papers_of: dict[int, int] = {}
    for team in model.team.values():
        for aid in team:
            papers_of[aid] = papers_of.get(aid, 0) + 1
    problems = []
    if len(rows) != nodes or sum(int(r[2]) for r in rows) != 2 * links:
        problems.append("export adjacency: rows or degrees do not match the CSV")
    if any(int(r[3]) != papers_of.get(int(r[0]), 0) for r in rows):
        problems.append("export adjacency: paper counts do not match authorship.csv")
    return problems


def check_dendrogram(model: CsvModel, layer: str, stdout: str) -> list[str]:
    levels = []
    for line in stdout.splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        levels.append((int(fields["removed_edges"]), int(fields["communities"])))
    if not levels:
        return ["communities: empty dendrogram"]
    nodes, links = model.size(layer)
    problems = []
    if any(b[1] <= a[1] or b[0] <= a[0] for a, b in zip(levels, levels[1:])):
        problems.append("communities: community counts or removals do not rise")
    if levels[0] != (0, model.components(layer)):
        problems.append(f"communities: first level {levels[0]} is not the component split")
    if levels[-1] != (links, nodes):
        problems.append(f"communities: last level {levels[-1]} != ({links} removals, {nodes} singletons)")
    return problems
