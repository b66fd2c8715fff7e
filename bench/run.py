#!/usr/bin/env python3
"""Benchmark of the journet pipeline on seeded synthetic journals.

Run from the repository root:

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory
and driven only through its public entry points: ``journet.cli.main`` in
process for the batch jobs, library calls for the interactive session.
Each run generates its inputs from ``--seed``, sets up (ingest), repeats
the workload's operations for ``--seconds`` seconds, then checks every
output outside the timed region.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it holds run metadata and the
workload-specific figures.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
# A set-up takes ~50 ms, so a burst of load on the host slows many of them
# by a lot; setup_s is the fastest of the many run over a run, the set-up's
# cost without that interference.
SETUPS_PER_PASS = 20
MIN_PASSES = 2

SURVEY_PAPERS = 250
SURVEY_STATS_LAYERS = ("coauthorship", "paper-citation")
COMMUNITY_JOURNALS = 6
COMMUNITY_PAPERS = 45
RELATED_PAPERS = 200
PAPER_RANK_LAYERS = ("paper-common-author", "paper-citation", "paper-common-pacs", "coupling")
AUTHOR_RANK_LAYERS = ("coauthorship", "author-common-pacs")
OVERLAP_LAYERS = ("paper-common-author", "paper-citation", "paper-common-pacs")
# One session: how many queries of each kind, in seeded order.
SESSION_MIX = {"rank-paper": 10, "rank-author": 5, "overlap": 7, "neighbors-author": 4, "neighbors-paper": 4}
# Enough session passes that query_p90_ms has at least ten samples above it.
MIN_QUERY_SAMPLES = 100
NEIGHBOR_DEPTH = 2

journet = None  # the package under test, imported from ROOT/src by import_journet


def import_journet():
    """Import journet from this checkout's src/, never from elsewhere."""
    global journet
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import journet as package
        import journet.cli  # noqa: F401  (binds every submodule the benchmark drives)
    except ImportError as exc:
        sys.exit(f"bench: cannot import journet from {src}: {exc}")
    if not Path(package.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: journet was imported from {package.__file__}, not from {src}")
    journet = package


class OpError(Exception):
    """An operation exited non-zero."""


@dataclass
class Journal:
    """One generated journal: its tables on disk, its corpus file and an
    independent model of it for the checks."""

    name: str
    seed: int
    papers: int
    directory: Path
    tables: dict[str, str] = field(default_factory=dict)
    paths: dict[str, Path] = field(default_factory=dict)
    corpus: object = None  # loaded journet corpus, for the session and the checks
    _model: checks.CsvModel | None = None

    def __post_init__(self):
        self.tables = gen.generate(self.seed, self.papers)
        self.paths = gen.write_tables(self.tables, self.directory)

    @property
    def corpus_path(self) -> Path:
        return self.directory / "journal.corpus"

    @property
    def model(self) -> checks.CsvModel:
        if self._model is None:
            self._model = checks.CsvModel(self.tables)
        return self._model

    def ingest_argv(self) -> list[str]:
        p = self.paths
        return ["ingest", "--papers", str(p["papers"]), "--authors", str(p["authors"]),
                "--links", str(p["authorship"]), "--refs", str(p["references"]),
                "--affils", str(p["affiliations"]), "--out", str(self.corpus_path)]

    def load(self):
        if self.corpus is None:
            self.corpus = journet.corpus.load_corpus(self.corpus_path)
        return self.corpus


@dataclass
class Op:
    """One timed operation of a pass.  ``run`` is the timed call; ``render``
    turns its result into the output texts that are digested and pinned;
    ``check`` lists problems with the first result."""

    label: str
    phase: str
    run: Callable[[], object]
    render: Callable[[object], dict[str, str]]
    check: Callable[[object, dict[str, str]], list[str]]


def call_cli(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = journet.cli.main(argv)
    if code != 0:
        raise OpError(f"exit {code}: {stderr.getvalue().strip()}")
    return stdout.getvalue()


def cli_op(label, phase, argv, out: Path | None, check) -> Op:
    def render(stdout):
        texts = {"stdout": stdout}
        if out is not None:
            texts["out"] = out.read_text(encoding="utf-8")
        return texts

    return Op(label, phase, lambda: call_cli(argv), render, check)


# -- workloads ----------------------------------------------------------------

def survey_ops(j: Journal) -> list[Op]:
    """The catalogue job: stats, distributions, evolution and every export,
    each a CLI command that reloads the corpus."""
    c = str(j.corpus_path)
    first: dict[str, dict[str, str]] = {}  # first outputs, for cross-command checks
    ops = []

    def keep(label, check):
        def wrapped(raw, texts):
            first[label] = texts
            return check(texts)
        return wrapped

    for layer in SURVEY_STATS_LAYERS:
        ops.append(cli_op(f"stats {layer}", "stats", ["stats", "--corpus", c, "--layer", layer], None,
                          keep(f"stats {layer}", lambda t, L=layer: checks.check_stats(j.model, L, t["stdout"]))))
    for layer in checks.ONE_MODE:
        out = j.directory / f"distribution-{layer}.csv"
        ops.append(cli_op(f"distribution {layer}", "export",
                          ["distribution", "--corpus", c, "--layer", layer, "--out", str(out)], out,
                          lambda raw, t, L=layer: checks.check_distribution(j.model, L, t["out"])))
    out = j.directory / "evolution.csv"
    ops.append(cli_op("evolution coauthorship mean_clustering", "evolution",
                      ["evolution", "--corpus", c, "--layer", "coauthorship", "--metric", "mean_clustering",
                       "--out", str(out)], out,
                      lambda raw, t: checks.check_evolution(
                          j.model, t["out"], first.get("stats coauthorship", {}).get("stdout"))))
    for layer in checks.LAYER_KINDS:
        out = j.directory / f"export-{layer}.net"
        ops.append(cli_op(f"export pajek {layer}", "export",
                          ["export", "--corpus", c, "--layer", layer, "--format", "pajek", "--out", str(out)],
                          out, lambda raw, t, L=layer: check_pajek_roundtrip(j, L, t["out"])))
    out = j.directory / "adjacency-coauthorship.csv"
    ops.append(cli_op("export adjacency coauthorship", "export",
                      ["export", "--corpus", c, "--layer", "coauthorship", "--format", "adjacency",
                       "--out", str(out)], out, lambda raw, t: checks.check_adjacency(j.model, t["out"])))
    return ops


def check_pajek_roundtrip(j: Journal, layer: str, text: str) -> list[str]:
    kinds = checks.LAYER_KINDS[layer]
    # Generated ids never look like another kind's, so "auto" types the
    # two kinds of a bipartite layer correctly.
    kind = kinds[0] if len(kinds) == 1 else "auto"
    try:
        parsed = journet.pajek.parse_pajek(text, kind=kind)
    except ValueError as exc:
        return [f"export pajek {layer}: does not parse back: {exc}"]
    built = journet.layers.build_layer(j.load(), journet.layers.layer_from_token(layer))
    return checks.check_pajek(j.model, layer, text, parsed == built)


def communities_ops(journals: list[Journal]) -> list[Op]:
    """Girvan-Newman on the co-authorship layer of each small journal."""
    return [
        cli_op(f"communities {j.name} coauthorship", "communities",
               ["communities", "--corpus", str(j.corpus_path), "--layer", "coauthorship",
                "--dump-dendrogram"], None,
               lambda raw, t, j=j: checks.check_dendrogram(j.model, "coauthorship", t["stdout"]))
        for j in journals
    ]


def session_queries(j: Journal, seed: int) -> list[tuple[str, object]]:
    """The seeded query stream of one session: (kind, seed id) pairs.
    Every other seed is a hub: a top-tenth paper by citations received
    or author by papers written; the rest are uniform picks."""
    rng = random.Random(f"related-{seed}")
    m = j.model
    cited: dict[str, int] = {}
    for _, target in sorted(m.arcs):
        cited[target] = cited.get(target, 0) + 1
    written: dict[int, int] = {}
    for team in m.team.values():
        for aid in team:
            written[aid] = written.get(aid, 0) + 1
    hub_papers = sorted(m.papers, key=lambda p: (-cited.get(p, 0), p))[: max(1, len(m.papers) // 10)]
    hub_authors = sorted(m.authors, key=lambda a: (-written.get(a, 0), a))[: max(1, len(m.authors) // 10)]
    kinds = [kind for kind, n in SESSION_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    stream = []
    for i, kind in enumerate(kinds):
        author = kind.endswith("author")
        pool = (hub_authors if author else hub_papers) if i % 2 else (m.authors if author else m.papers)
        stream.append((kind, rng.choice(pool)))
    return stream


def related_ops(j: Journal, seed: int) -> list[Op]:
    """One interactive session of library calls on a corpus loaded once."""
    L = journet.layers
    r = journet.reports

    def layers(tokens):
        return [L.layer_from_token(t) for t in tokens]

    ops = []
    for i, (kind, node_id) in enumerate(session_queries(j, seed)):
        label = f"q{i:02d} {kind} {node_id}"
        if kind.startswith("rank"):
            tokens = PAPER_RANK_LAYERS if kind == "rank-paper" else AUTHOR_RANK_LAYERS
            node = journet.graph.NodeRef("paper" if kind == "rank-paper" else "author", node_id)
            ops.append(Op(
                label, "query",
                lambda node=node, ls=layers(tokens): journet.retrieval.related_rank(j.corpus, node, ls),
                lambda items: {"stdout": r.ranking_csv(items)},
                lambda items, t, n=node_id, ts=tokens: (
                    [] if [(it.node.id, it.layer_count, it.weight_sum) for it in items]
                    == checks.expected_rank(j.model, list(ts), n)
                    else [f"rank {n}: differs from the CSV recomputation"])))
        elif kind == "overlap":
            node = journet.graph.paper_node(node_id)
            ops.append(Op(
                label, "query",
                lambda node=node, ls=layers(OVERLAP_LAYERS): journet.retrieval.layer_overlap(j.corpus, node, ls),
                lambda result: {"stdout": r.overlap_csv(result)},
                lambda result, t, n=node_id: (
                    [] if {x.id for x in result.common} == checks.expected_overlap(j.model, list(OVERLAP_LAYERS), n)
                    else [f"overlap {n}: differs from the CSV recomputation"])))
        else:
            token = "coauthorship" if kind == "neighbors-author" else "paper-citation"
            node = journet.graph.NodeRef("author" if kind == "neighbors-author" else "paper", node_id)

            def neighbors(node=node, layer=L.layer_from_token(token)):
                graph = journet.layers.build_layer(j.corpus, layer)
                return journet.retrieval.neighborhood(graph, node, NEIGHBOR_DEPTH)

            ops.append(Op(
                label, "query", neighbors,
                lambda result: {"stdout": r.neighborhood_csv(result)},
                lambda result, t, n=node_id, tk=token: (
                    [] if {x.id: d for x, d in result.members.items()} == j.model.ball(tk, n, NEIGHBOR_DEPTH)
                    else [f"neighbors {n}: differs from the CSV recomputation"])))
    return ops


@dataclass
class Workload:
    journals: list[Journal]
    ops: list[Op]
    load_in_setup: bool  # the session keeps one loaded corpus; batch jobs reload per command
    layers: tuple[str, ...]  # layers the workload builds, for the run metadata
    min_passes: int = MIN_PASSES


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "survey":
        j = Journal("j0", seed, SURVEY_PAPERS, work / "j0")
        return Workload([j], survey_ops(j), False, tuple(checks.LAYER_KINDS))
    if name == "communities":
        js = [Journal(f"j{k}", seed * 1000 + k, COMMUNITY_PAPERS, work / f"j{k}") for k in range(COMMUNITY_JOURNALS)]
        return Workload(js, communities_ops(js), False, ("coauthorship",))
    j = Journal("j0", seed, RELATED_PAPERS, work / "j0")
    used = tuple(dict.fromkeys(PAPER_RANK_LAYERS + AUTHOR_RANK_LAYERS + OVERLAP_LAYERS))
    ops = related_ops(j, seed)
    return Workload([j], ops, True, used, min_passes=-(-MIN_QUERY_SAMPLES // len(ops)))


WORKLOADS = ("survey", "communities", "related")


# -- running ------------------------------------------------------------------

def set_up(w: Workload) -> float:
    """Ingest every journal (and load it, for the session); seconds taken."""
    start = time.perf_counter()
    for j in w.journals:
        call_cli(j.ingest_argv())
        if w.load_in_setup:
            j.corpus = journet.corpus.load_corpus(j.corpus_path)
    return time.perf_counter() - start


@dataclass
class Tally:
    """Output digests and failures of every operation over all passes."""

    digests: dict[str, list[str]] = field(default_factory=dict)
    first: dict[str, tuple[object, dict[str, str]]] = field(default_factory=dict)
    raised: list[str] = field(default_factory=list)
    attempted: int = 0


def time_ops(ops: list[Op]) -> tuple[list, list[float]]:
    """Run every op once; its result (or the exception it raised) and time."""
    results, times = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # an operation failing is a result, not the end of the run
            results.append(exc)
        times.append(time.perf_counter() - start)
    return results, times


def record(ops: list[Op], results: list, tally: Tally) -> None:
    """Render and digest one pass's outputs, outside the timed region."""
    for op, result in zip(ops, results):
        tally.attempted += 1
        if isinstance(result, Exception):
            tally.raised.append(f"{op.label}: {type(result).__name__}: {result}")
            continue
        texts = op.render(result)
        tally.digests.setdefault(op.label, []).append(
            checks.sha256("".join(f"{k}\0{v}\0" for k, v in sorted(texts.items()))))
        tally.first.setdefault(op.label, (result, texts))


@dataclass
class Passes:
    """Set-up times, per-op times of the untraced and the traced passes,
    and the span index range of each traced pass."""

    setup: list[float] = field(default_factory=list)
    untraced: dict[str, list[float]] = field(default_factory=dict)
    traced: dict[str, list[float]] = field(default_factory=dict)
    span_ranges: list[tuple[int, int]] = field(default_factory=list)


def measure(w: Workload, seconds: float, tally: Tally, tracer: spans.Tracer | None = None) -> Passes:
    """Repeat passes for ``seconds``, and at least ``w.min_passes`` times.
    Untraced set-ups run before every pass, so that set-up time is sampled
    over the same stretch of time as the passes.  With a tracer, every
    second pass is traced."""
    ops = w.ops
    passes = Passes()
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < seconds or count < w.min_passes:
        passes.setup += [set_up(w) for _ in range(SETUPS_PER_PASS)]
        traced = tracer is not None and count % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            results, times = time_ops(ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            passes.span_ranges.append((first_span, len(tracer.spans)))
        record(ops, results, tally)
        for op, elapsed in zip(ops, times):
            (passes.traced if traced else passes.untraced).setdefault(op.label, []).append(elapsed)
        count += 1
    return passes


def job_seconds(ops: list[Op], times: dict[str, list[float]], phase: str | None = None) -> float:
    """Median over passes of a pass's wall time (of its ops in ``phase``)."""
    per_pass = zip(*(times[op.label] for op in ops if phase in (None, op.phase)))
    return statistics.median(sum(pass_times) for pass_times in per_pass)


def verify(ops: list[Op], tally: Tally, golden: dict | None) -> tuple[int, list[str]]:
    """Check the first output of every op; count failed executions."""
    problems = list(tally.raised)
    failed = len(tally.raised)
    for op in ops:
        if op.label not in tally.first:
            continue
        raw, texts = tally.first[op.label]
        try:
            found = op.check(raw, texts)
        except Exception as exc:  # a malformed output can break the parser of a check
            found = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        if golden is not None:
            pinned = golden.get(op.label)
            actual = {k: checks.sha256(v) for k, v in texts.items()}
            if pinned != actual:
                found.append(f"{op.label}: output differs from the pinned digest")
        digests = tally.digests[op.label]
        good = digests[0] if not found else None
        failed += sum(d != good for d in digests)
        problems += found
        if any(d != digests[0] for d in digests):
            problems.append(f"{op.label}: output changed between passes")
    return failed, problems


# -- per-layer metrics from the spans -------------------------------------------

# metric -> (unit, span name, what to add up: "time", "calls" or a count key)
SPAN_METRICS = {
    "corpus.load_s": ("s", "corpus.load_corpus", "time"),
    "corpus.load_calls": ("count", "corpus.load_corpus", "calls"),
    "corpus.validate_s": ("s", "corpus.validate_corpus", "time"),
    "corpus.snapshot_s": ("s", "corpus.snapshot", "time"),
    "corpus.snapshot_calls": ("count", "corpus.snapshot", "calls"),
    "graph.build_graph_s": ("s", "graph.build_graph", "time"),
    "graph.build_graph_calls": ("count", "graph.build_graph", "calls"),
    "layers.build_s": ("s", "layers.build_layer", "time"),
    "layers.build_calls": ("count", "layers.build_layer", "calls"),
    "layers.links_built": ("count", "layers.build_layer", "links"),
    "metrics.degree_s": ("s", "metrics.degree_stats", "time"),
    "metrics.clustering_s": ("s", "metrics.clustering", "time"),
    "metrics.paths_s": ("s", "metrics.path_stats", "time"),
    "metrics.bfs_calls": ("count", "metrics.bfs_distances", "calls"),
    "metrics.report_calls": ("count", "metrics.metrics_report", "calls"),
    "communities.girvan_newman_s": ("s", "communities.girvan_newman", "time"),
    "communities.modularity_s": ("s", "communities.modularity", "time"),
    "communities.levels": ("count", "communities.girvan_newman", "levels"),
    "communities.removals": ("count", "communities.girvan_newman", "removals"),
    "retrieval.rank_s": ("s", "retrieval.related_rank", "time"),
    "retrieval.overlap_s": ("s", "retrieval.layer_overlap", "time"),
    "retrieval.neighborhood_s": ("s", "retrieval.neighborhood", "time"),
    "pajek.export_s": ("s", "pajek.export_pajek", "time"),
    "pajek.bytes_out": ("bytes", "pajek.export_pajek", "bytes"),
}
CLI_COMMANDS = ("stats", "distribution", "evolution", "export", "communities")
# Wrapped functions each derived metric needs; the rest need their SPAN_METRICS source.
NEEDS = {
    "corpus.ingest_s": {"corpus.ingest_corpus"},
    "retrieval.layers_built": {"layers.build_layer"},
    "communities.edge_betweenness_once_s": {"communities.edge_betweenness"},
    **{f"cli.{c}_s": {"cli.main"} for c in ("ingest",) + CLI_COMMANDS},
    **{metric: {name} for metric, (_, name, _) in SPAN_METRICS.items()},
}


def layer_metrics(tracer: spans.Tracer, setup_spans: int, passes: Passes, ops: list[Op],
                  betweenness_once: float | None) -> tuple[dict, list[str]]:
    """Per-layer metrics: set-up figures from the traced set-up (the first
    ``setup_spans`` spans), all others per traced pass."""
    all_spans = tracer.spans
    n = len(passes.span_ranges)
    in_passes = [i for a, b in passes.span_ranges for i in range(a, b)]
    out: dict[str, tuple[float, str]] = {}

    def total(indexes, name, what):
        chosen = [all_spans[i] for i in indexes if all_spans[i][0] == name]
        if what == "time":
            return sum(s[2] - s[1] for s in chosen)
        if what == "calls":
            return len(chosen)
        return sum(s[4].get(what, 0) for s in chosen if s[4])

    out["corpus.ingest_s"] = (total(range(setup_spans), "corpus.ingest_corpus", "time"), "s")
    out["cli.ingest_s"] = (total(range(setup_spans), "cli.ingest", "time"), "s")
    for metric, (unit, name, what) in SPAN_METRICS.items():
        value = total(in_passes, name, what)
        out[metric] = (value / n if unit == "s" else value // n, unit)
    from_retrieval = [i for i in in_passes if all_spans[i][0] == "layers.build_layer"
                      and spans.has_ancestor(all_spans, i, "retrieval")]
    out["retrieval.layers_built"] = (len(from_retrieval) // n, "count")
    reports = [all_spans[i] for i in in_passes if all_spans[i][0].startswith("reports.")]
    out["reports.render_s"] = (sum(s[2] - s[1] for s in reports) / n, "s")
    out["reports.bytes_out"] = (sum(s[4]["bytes"] for s in reports if s[4]) // n, "bytes")
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = (total(in_passes, f"cli.{command}", "time") / n, "s")
    self_by_module = dict.fromkeys(spans.MODULES, 0.0)
    for a, b in passes.span_ranges:
        for span, own in zip(all_spans[a:b], spans.self_times(all_spans, a, b)):
            self_by_module[span[0].split(".", 1)[0]] += own
    for module, value in self_by_module.items():
        out[f"self.{module}_s"] = (value / n, "s")
    if betweenness_once is not None:
        out["communities.edge_betweenness_once_s"] = (betweenness_once, "s")
    traced_job = job_seconds(ops, passes.traced)
    out["trace.job_s"] = (traced_job, "s")
    out["trace.overhead_ratio"] = (traced_job / job_seconds(ops, passes.untraced), "ratio")
    traced_total = sum(sum(times) for times in passes.traced.values())
    out["trace.span_share"] = (sum(self_by_module.values()) / traced_total, "ratio")

    absent = set(tracer.absent)
    missing = [m for m in NEEDS if NEEDS[m] & absent or m not in out]
    missing += [f"self.{module}_s" for module, names in spans.WRAPPED.items()
                if all(f"{module}.{f}" in absent for f in names)]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.items() if k not in missing}
    return metrics, missing


# -- metadata -------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(name: str, seed: int, w: Workload) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "journals": [
            {
                "name": j.name,
                "seed": j.seed,
                "papers": len(j.model.papers),
                "authors": len(j.model.authors),
                "reference_rows": j.model.reference_rows,
                "layers": {layer: list(j.model.size(layer)) for layer in w.layers},
            }
            for j in w.journals
        ],
    }


def inputs_digest(w: Workload) -> str:
    return checks.sha256("".join(j.tables[t] for j in w.journals for t in gen.TABLES))


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record the outputs of the default seed as the golden digests")
    args = parser.parse_args(argv)
    import_journet()

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(args, work: Path) -> int:
    import_rss_mb = peak_rss_mb()  # interpreter and imports, before any input exists
    w = make_workload(args.workload, args.seed, work)
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tracer = spans.Tracer() if args.trace else None

    set_up(w)  # writes the corpus files; not counted, as it also pays one-off costs
    if tracer:
        tracer.install()
        try:
            set_up(w)
        finally:
            tracer.uninstall()
    setup_spans = len(tracer.spans) if tracer else 0

    tally = Tally()
    passes = measure(w, args.seconds, tally, tracer)
    peak_mb = peak_rss_mb()

    pinning = args.pin and args.seed == DEFAULT_SEED
    golden = None
    if args.seed == DEFAULT_SEED and not pinning:
        golden = golden_all.get("outputs", {}).get(args.workload, {})
    for j in w.journals:
        j.load()
    failed, problems = verify(w.ops, tally, golden)
    if golden is not None and golden_all.get("inputs", {}).get(args.workload) != inputs_digest(w):
        problems.append("generated inputs differ from the pinned digest: the generator changed")
    if pinning:
        golden_all.setdefault("inputs", {})[args.workload] = inputs_digest(w)
        golden_all.setdefault("outputs", {})[args.workload] = {
            label: {k: checks.sha256(v) for k, v in texts.items()} for label, (_, texts) in tally.first.items()
        }
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")

    times = passes.untraced
    detail = {"passes": len(times[w.ops[0].label]) + len(passes.span_ranges), "ops_per_pass": len(w.ops),
              "failed_ratio": failed / tally.attempted, "import_rss_mb": import_rss_mb}
    if tracer:
        betweenness = getattr(journet.communities, "edge_betweenness", None)
        once = None
        if betweenness is not None:
            graph = journet.layers.build_layer(w.journals[0].load(), journet.layers.Layer.COAUTHORSHIP)
            start = time.perf_counter()
            betweenness(graph)
            once = time.perf_counter() - start
        metrics, detail["absent"] = layer_metrics(tracer, setup_spans, passes, w.ops, once)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": min(passes.setup), "unit": "s"},
            "job_s": {"value": job_seconds(w.ops, times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        for phase in sorted({op.phase for op in w.ops}):
            detail[f"{phase}_s"] = job_seconds(w.ops, times, phase)
        if args.workload == "related":
            latencies = [t * 1000 for ts in times.values() for t in ts]
            deciles = statistics.quantiles(latencies, n=10)
            detail.update(query_p50_ms=deciles[4], query_p90_ms=deciles[8], query_samples=len(latencies),
                          queries_per_s=len(latencies) / (sum(latencies) / 1000))

    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"run": metadata(args.workload, args.seed, w), "detail": detail}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
