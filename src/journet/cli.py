"""Command-line front end.

Thin bindings over the library: every subcommand loads a corpus (or
ingests one), calls the corresponding library function and prints the
serialized result.  A ``--node`` token is read as a node of the kinds
the given layers hold, by those kinds' id rules alone, before the corpus
is loaded.  Data goes to stdout or --out files, diagnostics to stderr.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import reports
from .communities import community_of, girvan_newman
from .corpus import TimeIndex, ascii_int, ingest_corpus, load_corpus, persist_corpus, snapshot
from .graph import ID_RULES, NodeRef, read_node
from .layers import Layer, build_layer, layer_from_token
from .metrics import EVOLUTION_METRICS, degree_stats, evolution_series, metrics_report
from .pajek import export_pajek
from .retrieval import DIRECTIONS, layer_overlap, neighborhood, related_rank

LAYER_TOKENS = [layer.value for layer in Layer]
NODE_HELP = ("a node id that fits the id rule of exactly one node kind the layers hold;"
             " on two-kind layers, kind:id names the kind (paper:v2n2p1, reference:1990)")


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _node_for_layers(token: str, layers: list[Layer]) -> NodeRef:
    """Read a node id as the one kind, of those every given layer holds,
    whose id rule (``graph.ID_RULES``) accepts it.

    Where every layer holds two kinds, a ``kind:id`` token whose kind they
    share names the kind outright.  A token that fits no kind, or that
    fits two (a paper id is also a possible cited-work key), is an error.
    Commands read the token before they load the corpus, so a bad token
    fails before any layer is built or community run started.
    """
    kinds = frozenset.intersection(*(layer.node_kinds for layer in layers))
    if not kinds:
        raise ValueError(
            "the given layers hold no common node kind; pick layers over the same nodes"
        )
    kind, sep, text = token.partition(":")
    if sep and kind in kinds and all(len(layer.node_kinds) == 2 for layer in layers):
        kinds, token = frozenset({kind}), text
    fits = [k for k in sorted(kinds) if ID_RULES[k].fullmatch(token)]
    if len(fits) > 1:
        raise ValueError(f"node id {token!r} fits {' and '.join(fits)} ids alike;"
                         f" write it as kind:id, such as {fits[0]}:{token}")
    if not fits:
        raise ValueError(f"node id {token!r} is not an id of the layers'"
                         f" {' or '.join(sorted(kinds))} nodes")
    return read_node(fits[0], token)


def _cmd_ingest(args) -> int:
    corpus = ingest_corpus(
        args.papers, args.authors, args.links, args.refs, args.affils
    )
    persist_corpus(corpus, args.out)
    print(
        f"ingested {corpus.paper_count} papers, {corpus.author_count} authors,"
        f" {len(corpus.affiliations)} affiliations -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _load(args):
    corpus = load_corpus(args.corpus)
    as_of = getattr(args, "as_of", None)
    if as_of:
        corpus = snapshot(corpus, TimeIndex.parse(as_of))
    return corpus


def _cmd_stats(args) -> int:
    graph = build_layer(_load(args), layer_from_token(args.layer))
    report = metrics_report(graph)
    text = reports.metrics_csv(report) if args.format == "csv" else reports.metrics_kv(report)
    sys.stdout.write(text)
    return 0


def _cmd_distribution(args) -> int:
    stats = degree_stats(build_layer(_load(args), layer_from_token(args.layer)))
    Path(args.out).write_text(reports.degree_distribution_csv(stats), encoding="utf-8")
    return 0


def _cmd_communities(args) -> int:
    layer = layer_from_token(args.layer)
    node = None if args.node is None else _node_for_layers(args.node, [layer])
    graph = build_layer(_load(args), layer).symmetrized()
    result = girvan_newman(graph)
    if args.dump_dendrogram:
        sys.stdout.write(reports.dendrogram_lines(result))
    elif node is not None:
        members = community_of(result, node)
        sys.stdout.write(reports.community_members_csv(members))
    else:
        sys.stdout.write(reports.partition_csv(result.best.partition))
    return 0


def _cmd_neighbors(args) -> int:
    layer = layer_from_token(args.layer)
    node = _node_for_layers(args.node, [layer])
    graph = build_layer(_load(args), layer)
    result = neighborhood(graph, node, args.depth, direction=args.direction)
    sys.stdout.write(reports.neighborhood_csv(result))
    return 0


def _depth(text: str) -> int:
    """The --depth value: an integer of at least 1 in ASCII digits, else a usage error."""
    try:
        if (depth := ascii_int(text)) >= 1:
            return depth
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"depth must be a whole number in ASCII digits, got {text!r}") from None
    raise argparse.ArgumentTypeError(f"depth must be >= 1, got {depth}")


def _layer_tokens(text: str) -> list[str]:
    """The --layers tokens; naming none is a usage error, an unknown one a data error."""
    if not (tokens := [t for t in text.split(",") if t]):
        raise argparse.ArgumentTypeError(f"{text!r} names no layer")
    return tokens


def _cmd_overlap(args) -> int:
    layers = list(map(layer_from_token, args.layers))
    node = _node_for_layers(args.node, layers)
    corpus = _load(args)
    result = layer_overlap(corpus, node, layers, citation_direction=args.direction)
    sys.stdout.write(reports.overlap_csv(result))
    return 0


def _cmd_rank(args) -> int:
    layers = list(map(layer_from_token, args.layers))
    node = _node_for_layers(args.node, layers)
    corpus = _load(args)
    items = related_rank(corpus, node, layers, citation_direction=args.direction)
    sys.stdout.write(reports.ranking_csv(items))
    return 0


def _cmd_evolution(args) -> int:
    series = evolution_series(_load(args), layer_from_token(args.layer), args.metric)
    Path(args.out).write_text(reports.evolution_csv(series), encoding="utf-8")
    return 0


def _cmd_export(args) -> int:
    graph = build_layer(_load(args), layer_from_token(args.layer))
    write = export_pajek if args.format == "pajek" else reports.adjacency_report_csv
    Path(args.out).write_text(write(graph), encoding="utf-8")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by
    every call of :func:`main`; parsing leaves it unchanged."""
    parser = _Parser(prog="journet", description="Journal network analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read CSV tables, write a corpus file")
    p.add_argument("--papers", required=True)
    p.add_argument("--authors", required=True)
    p.add_argument("--links", required=True, help="authorship CSV (paper, author, position)")
    p.add_argument("--refs", required=True)
    p.add_argument("--affils", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    def corpus_arg(p):
        p.add_argument("--corpus", required=True)

    p = sub.add_parser("stats", help="network statistics for one layer")
    corpus_arg(p)
    p.add_argument("--layer", required=True, choices=LAYER_TOKENS)
    p.add_argument("--as-of", dest="as_of", default=None, metavar="vVnI")
    p.add_argument("--format", choices=["kv", "csv"], default="kv")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("distribution", help="degree distribution as CSV")
    corpus_arg(p)
    p.add_argument("--layer", required=True, choices=LAYER_TOKENS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("communities", help="divisive community detection")
    corpus_arg(p)
    p.add_argument("--layer", required=True, choices=LAYER_TOKENS)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--node", default=None,
                        help=f"print the community of this node: {NODE_HELP}")
    output.add_argument("--dump-dendrogram", action="store_true")
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("neighbors", help="BFS ball around a node in one layer")
    corpus_arg(p)
    p.add_argument("--layer", required=True, choices=LAYER_TOKENS)
    p.add_argument("--node", required=True, help=NODE_HELP)
    p.add_argument("--depth", type=_depth, required=True)
    p.add_argument("--direction", choices=list(DIRECTIONS), default="both")
    p.set_defaults(func=_cmd_neighbors)

    for name, func, summary in (("overlap", _cmd_overlap, "nodes related to a seed in every layer"),
                                ("rank", _cmd_rank, "related nodes ordered by layer agreement")):
        p = sub.add_parser(name, help=summary)
        corpus_arg(p)
        p.add_argument("--node", required=True, help=NODE_HELP)
        p.add_argument("--layers", required=True, type=_layer_tokens,
                       help="comma-separated layer names")
        p.add_argument("--direction", choices=list(DIRECTIONS), default="both")
        p.set_defaults(func=func)

    p = sub.add_parser("evolution", help="metric over cumulative time slices")
    corpus_arg(p)
    p.add_argument("--layer", required=True, choices=LAYER_TOKENS)
    p.add_argument("--metric", required=True, choices=list(EVOLUTION_METRICS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolution)

    p = sub.add_parser("export", help="write a layer as Pajek or adjacency CSV")
    corpus_arg(p)
    p.add_argument("--layer", required=True, choices=LAYER_TOKENS)
    p.add_argument("--format", required=True, choices=["pajek", "adjacency"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"journet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
