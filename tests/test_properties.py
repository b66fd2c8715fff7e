"""Property tests: snapshots, persistence, ingest, Pajek, the Pajek and adjacency
writers against plain renderings, and CLI node tokens on generated corpora and
graphs, the order, equality and checks of the node and time-index tuples, and
the Girvan-Newman loop and its betweenness kernel on multi-component graphs.

hypothesis is a test-only dependency; without it this module is skipped.
Runs are derandomized, so every run draws the same examples.
"""

import copy
import csv
import pickle
import tempfile
from collections import Counter
from dataclasses import replace
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
from journet.cli import _node_for_layers  # noqa: E402
from journet.communities import (  # noqa: E402
    _betweenness_on_adj, edge_betweenness, girvan_newman, modularity)
from journet.graph import (  # noqa: E402
    AUTHOR, ID_RULES, NODE_KINDS, GraphError, NodeRef, author_node, build_graph, reference_node)
from journet.layers import Layer, build_layer  # noqa: E402
from journet.metrics import connected_components  # noqa: E402
from journet.pajek import export_pajek, parse_pajek  # noqa: E402
from journet.reports import adjacency_report_csv  # noqa: E402

from conftest import PACS_POOL  # noqa: E402
from oracles import adjacency_csv, pajek_text  # noqa: E402

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
                tuple(build_layer(c, layer).rows("both"))
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
        # the same corpus loaded back, and built by hand with its own record per citation
        persist_corpus(load_corpus(ordered / "journal.corpus"), Path(tmp, "loaded.corpus"))
        by_hand = Corpus(
            [replace(p, reference_keys=tuple(ReferenceKey(r.key, r.internal_paper_id)
                                             for r in p.reference_keys))
             for p in first.papers.values()],
            first.authors.values(), first.affiliations.values())
        assert by_hand == first
        persist_corpus(by_hand, Path(tmp, "by-hand.corpus"))
        files = ["ordered/journal.corpus", "shuffled/journal.corpus", "loaded.corpus", "by-hand.corpus"]
        assert len({Path(tmp, name).read_bytes() for name in files}) == 1


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


def assert_writers_match_plain_renderings(graph):
    links, nodes = list(graph.links()), graph.nodes()
    assert export_pajek(graph) == pajek_text(nodes, links, graph.directed)
    assert adjacency_report_csv(graph) == adjacency_csv(nodes, links, graph.aux_counts)


# row graphs, directed or not, with isolated nodes and weights up to well past the
# node count, so that a weight's text also comes from past the writer's label table
@st.composite
def row_graphs(draw):
    keys = draw(st.lists(adversarial_keys | st.text(min_size=1, max_size=6), max_size=9, unique=True))
    nodes = [reference_node(key) for key in keys]
    nodes += [NodeRef(AUTHOR, i) for i in draw(st.lists(st.integers(-50, 50), max_size=5, unique=True))]
    links = []
    if len(nodes) > 1:
        ends = st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
        links = draw(st.lists(st.tuples(ends, st.integers(1, 40)), max_size=20))
    return build_graph(draw(st.booleans()), [(u, v, w) for (u, v), w in links], isolated_nodes=nodes)


@PROPERTY_SETTINGS
@given(row_graphs())
def test_writers_match_plain_renderings_of_row_graphs(graph):
    assert_writers_match_plain_renderings(graph)


@PROPERTY_SETTINGS
@given(corpora(key_texts=adversarial_keys | st.text(min_size=1, max_size=8)))
def test_writers_match_plain_renderings_of_every_layer(corpus):
    for layer in Layer:  # the one-mode layers are group-held; cited-work keys hold
        assert_writers_match_plain_renderings(build_layer(corpus, layer))  # ",", '"', " ", non-ASCII


@PROPERTY_SETTINGS
@given(corpora(key_texts=adversarial_keys | st.text(min_size=1, max_size=8)))
def test_cli_node_tokens_read_back_to_every_layer_node(corpus):
    for layer in Layer:
        kinds = layer.node_kinds
        for node in build_layer(corpus, layer).nodes():
            bare = str(node.id)
            fits = [kind for kind in sorted(kinds) if ID_RULES[kind].fullmatch(bare)]
            assert node.kind in fits
            if len(kinds) == 2:
                assert _node_for_layers(str(node), [layer]) == node
                if bare.partition(":")[0] in kinds and ":" in bare:
                    continue  # bare "paper:x" reads as the paper x; kind:id is checked above
            if len(fits) == 1:
                assert _node_for_layers(bare, [layer]) == node
            else:
                with pytest.raises(ValueError, match=f"such as {fits[0]}:"):
                    _node_for_layers(bare, [layer])


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


# graphs of 1-4 connected components on interleaved author ids; a twin repeats
# the previous component's links and relative id order, so betweenness scores
# tie bit for bit across the two pieces
@st.composite
def component_graphs(draw):
    specs = []  # (size, links between local nodes, rank of each local node's id)
    for _ in range(draw(st.integers(1, 4))):
        if specs and draw(st.booleans()):
            specs.append(specs[-1])
            continue
        size = draw(st.integers(1 if specs else 2, 8))
        local = st.integers(0, size - 1)
        edges = {(draw(st.integers(0, j - 1)), j) for j in range(1, size)}  # a spanning tree
        edges |= {(min(e), max(e)) for e in draw(st.lists(st.tuples(local, local), max_size=10))
                  if e[0] != e[1]}
        specs.append((size, sorted(edges), draw(st.permutations(range(size)))))
    ids = draw(st.permutations(range(1, sum(spec[0] for spec in specs) + 1)))
    links, nodes, start = [], [], 0
    for size, edges, rank in specs:
        chunk = sorted(ids[start:start + size])
        start += size
        piece = [author_node(chunk[r]) for r in rank]
        nodes += piece
        links += [(piece[a], piece[b], draw(st.integers(1, 3))) for a, b in edges]
    return build_graph(False, links, isolated_nodes=nodes)


def whole_graph_dendrogram(graph):
    """Girvan-Newman with no kept state: after each removal the remaining graph
    is built again and scored whole, and its top edge goes next, ties to the
    least (min endpoint, max endpoint) pair.  Records as (removed, count,
    partition, modularity bits), a level whenever the component count grows."""
    nodes, links = graph.nodes(), {(u, v): w for u, v, w in graph.links()}
    records = []
    for removed in range(len(links) + 1):
        remaining = build_graph(False, [(u, v, w) for (u, v), w in links.items()],
                                isolated_nodes=nodes)
        comps = sorted(connected_components(remaining))
        if not records or len(comps) > records[-1][1]:
            partition = {node: label for label, comp in enumerate(comps) for node in comp}
            records.append((removed, len(comps), partition, modularity(graph, partition).hex()))
        if links:
            scores = edge_betweenness(remaining)
            del links[min(scores, key=lambda edge: (-scores[edge], edge))]
    return records


def assert_matches_whole_graph_recompute(graph):
    result = girvan_newman(graph)
    assert [(r.removed_edges, r.community_count, r.partition, r.modularity.hex())
            for r in result.records] == whole_graph_dendrogram(graph)


@PROPERTY_SETTINGS
@given(component_graphs())
def test_girvan_newman_matches_whole_graph_recompute(graph):
    assert_matches_whole_graph_recompute(graph)


def test_girvan_newman_split_leaving_the_least_node_on_the_far_side():
    # path 4-2-3-1: the middle edge (2, 3) goes first, and 2's side {2, 4}
    # lacks the piece's least node 1, which stays with 3
    graph = build_graph(False, [(author_node(a), author_node(b), 1)
                                for a, b in [(4, 2), (2, 3), (3, 1)]])
    second = girvan_newman(graph).records[1]
    assert (second.removed_edges, second.community_count) == (1, 2)
    assert second.partition == {author_node(1): 0, author_node(3): 0,
                                author_node(2): 1, author_node(4): 1}
    assert_matches_whole_graph_recompute(graph)


@PROPERTY_SETTINGS
@given(component_graphs())
def test_betweenness_kernel_on_a_component_equals_the_whole_graph_call(graph):
    adj = tuple(graph.rows())
    whole = dict(zip(*_betweenness_on_adj(adj)))
    covered = {}
    for piece in connected_components(graph):
        edges, scores = _betweenness_on_adj(adj, [graph.index(node) for node in piece])
        covered.update((edge, score.hex()) for edge, score in zip(edges, scores))
    assert covered == {edge: score.hex() for edge, score in whole.items()}
