import pytest

from journet.cli import build_parser, main
from journet.corpus import persist_corpus

PAPERS = """\
paper_id,title,volume,issue,year,pacs
v1n1p1,Quartet,1,1,2001,05.50.+q
v1n2p1,Pair,1,2,2002,05.50.+q;64.60.Cn
"""

AUTHORS = """\
author_id,name,affiliation_ids
3671,Ann,
3672,Bob,
3673,Cid,
3674,Dee,
"""

AUTHORSHIP = """\
paper_id,author_id,position
v1n1p1,3671,1
v1n1p1,3672,2
v1n1p1,3673,3
v1n1p1,3674,4
v1n2p1,3671,1
"""

REFERENCES = """\
citing_paper_id,ref_key,internal_paper_id
v1n2p1,earlier quartet paper,v1n1p1
v1n2p1,external classic,
"""


def ingest(tmp_path, references=REFERENCES):
    for name, text in [
        ("papers.csv", PAPERS),
        ("authors.csv", AUTHORS),
        ("authorship.csv", AUTHORSHIP),
        ("references.csv", references),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "journal.corpus"
    code = main([
        "ingest",
        "--papers", str(tmp_path / "papers.csv"),
        "--authors", str(tmp_path / "authors.csv"),
        "--links", str(tmp_path / "authorship.csv"),
        "--refs", str(tmp_path / "references.csv"),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture
def corpus_file(tmp_path):
    return ingest(tmp_path)


def test_ingest_reports_counts(corpus_file, tmp_path, capsys):
    assert corpus_file.exists()
    capsys.readouterr()
    data_dir = corpus_file.parent
    code = main([
        "ingest",
        "--papers", str(data_dir / "papers.csv"),
        "--authors", str(data_dir / "authors.csv"),
        "--links", str(data_dir / "authorship.csv"),
        "--refs", str(data_dir / "references.csv"),
        "--out", str(tmp_path / "again.corpus"),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "2 papers, 4 authors" in captured.err
    assert captured.out == ""


def test_ingest_error_exits_2(tmp_path, capsys):
    (tmp_path / "papers.csv").write_text("paper_id,title\n", encoding="utf-8")
    code = main([
        "ingest",
        "--papers", str(tmp_path / "papers.csv"),
        "--authors", str(tmp_path / "papers.csv"),
        "--links", str(tmp_path / "papers.csv"),
        "--refs", str(tmp_path / "papers.csv"),
        "--out", str(tmp_path / "out.corpus"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "header" in captured.err
    assert not (tmp_path / "out.corpus").exists()


def test_stats_kv(corpus_file, capsys):
    code = main(["stats", "--corpus", str(corpus_file), "--layer", "coauthorship"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nodes=4\n" in out
    assert "links=6\n" in out


def test_stats_csv_and_as_of(corpus_file, capsys):
    code = main([
        "stats", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--as-of", "v1n1", "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("metric,value\nnodes,4\n")


def test_neighbors_quartet_row(corpus_file, capsys):
    code = main([
        "neighbors", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--node", "3672", "--depth", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "node_id,distance\n3671,1\n3673,1\n3674,1\n"


def test_neighbors_reads_node_as_the_layers_kind(tmp_path, capsys):
    # a cited-work key that looks like an author id is still a cited work
    corpus = ingest(tmp_path, REFERENCES + "v1n2p1,1990,\n")
    code = main([
        "neighbors", "--corpus", str(corpus), "--layer", "cocitation",
        "--node", "1990", "--depth", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "node_id,distance\nearlier quartet paper,1\nexternal classic,1\n"


def test_bipartite_layer_reads_kind_prefixed_node(tmp_path, capsys):
    # on a two-kind layer, "reference:1990" names the cited work 1990, and so
    # does "1990", which fits the cited-work id rule alone of the layer's kinds
    corpus = ingest(tmp_path, REFERENCES + "v1n2p1,1990,\n")
    argv = ["neighbors", "--corpus", str(corpus), "--layer", "bipartite-paper-reference",
            "--depth", "1", "--node"]
    for token in ("1990", "reference:1990"):
        code = main(argv + [token])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "node_id,distance\nv1n2p1,1\n"
    code = main(argv + ["paper:v1n2p1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (
        "node_id,distance\n1990,1\nearlier quartet paper,1\nexternal classic,1\n"
    )


def test_bipartite_layer_asks_for_kind_of_a_token_two_kinds_fit(corpus_file, capsys):
    # a paper id is also a possible cited-work key, so the bare id names no node
    code = main(["neighbors", "--corpus", str(corpus_file), "--layer",
                 "bipartite-paper-reference", "--depth", "1", "--node", "v1n2p1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("journet: error: node id 'v1n2p1' fits paper and reference ids alike;"
                            " write it as kind:id, such as paper:v1n2p1\n")


def test_single_kind_layer_reads_prefix_as_part_of_the_id(tmp_path, capsys):
    corpus = ingest(tmp_path, REFERENCES + "v1n2p1,reference:1990,\n")
    code = main([
        "neighbors", "--corpus", str(corpus), "--layer", "cocitation",
        "--node", "reference:1990", "--depth", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "node_id,distance\nearlier quartet paper,1\nexternal classic,1\n"


def test_neighbors_rejects_non_integer_author_id(corpus_file, capsys):
    code = main([
        "neighbors", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--node", "v1n1p1", "--depth", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "v1n1p1" in captured.err


@pytest.mark.parametrize("as_of", ["v0n1", "v1n0", "v01n1"])
def test_stats_rejects_bad_as_of(corpus_file, capsys, as_of):
    code = main([
        "stats", "--corpus", str(corpus_file), "--layer", "coauthorship", "--as-of", as_of,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert as_of in captured.err


def test_missing_required_flag_is_usage_error(corpus_file, capsys):
    code = main(["neighbors", "--corpus", str(corpus_file), "--layer", "coauthorship"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err


def test_unknown_layer_lists_valid_tokens(corpus_file, capsys):
    code = main(["stats", "--corpus", str(corpus_file), "--layer", "friendship"])
    captured = capsys.readouterr()
    assert code == 1
    assert "coauthorship" in captured.err


def test_unknown_node_is_data_error(corpus_file, capsys):
    code = main([
        "neighbors", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--node", "9999", "--depth", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "9999" in captured.err


def test_missing_corpus_file_is_data_error(tmp_path, capsys):
    code = main(["stats", "--corpus", str(tmp_path / "nope"), "--layer", "coauthorship"])
    assert code == 2
    assert capsys.readouterr().err


def test_corrupt_corpus_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.corpus"
    bad.write_text("journet-corpus v0\n{}\n", encoding="utf-8")
    code = main(["stats", "--corpus", str(bad), "--layer", "coauthorship"])
    captured = capsys.readouterr()
    assert code == 2
    assert "journet-corpus v2" in captured.err


def test_export_pajek_and_adjacency(corpus_file, tmp_path, capsys):
    out = tmp_path / "net.net"
    code = main([
        "export", "--corpus", str(corpus_file), "--layer", "paper-citation",
        "--format", "pajek", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("*Vertices 2\n")
    assert "*Arcs" in text

    out2 = tmp_path / "adj.csv"
    code = main([
        "export", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--format", "adjacency", "--out", str(out2),
    ])
    assert code == 0
    assert "3672,3671 3673 3674,3,1" in out2.read_text(encoding="utf-8")


def test_distribution(corpus_file, tmp_path):
    out = tmp_path / "dist.csv"
    code = main([
        "distribution", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("degree,count,fraction\n")


def test_overlap_and_rank(corpus_file, capsys):
    code = main([
        "overlap", "--corpus", str(corpus_file), "--node", "v1n2p1",
        "--layers", "paper-common-author,paper-citation,paper-common-pacs",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "node_id\nv1n1p1\n"

    code = main([
        "rank", "--corpus", str(corpus_file), "--node", "v1n2p1",
        "--layers", "paper-common-author,paper-citation,paper-common-pacs",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.split("\n")[1] == "v1n1p1,3,3"


def test_rank_rejects_kind_mismatch(corpus_file, capsys):
    code = main([
        "rank", "--corpus", str(corpus_file), "--node", "3672",
        "--layers", "paper-common-author,paper-citation",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "node id '3672' is not an id of the layers' paper nodes" in captured.err
    code = main(["overlap", "--corpus", str(corpus_file), "--node", "101",
                 "--layers", "coauthorship,paper-citation"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("journet: error: the given layers hold no common node kind;"
                            " pick layers over the same nodes\n")


def test_evolution(corpus_file, tmp_path):
    out = tmp_path / "evo.csv"
    code = main([
        "evolution", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--metric", "node_count", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8") == "volume,issue,value\n1,1,4\n1,2,4\n"


def test_evolution_unknown_metric_usage_error(corpus_file, capsys):
    code = main([
        "evolution", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--metric", "entropy", "--out", "x.csv",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "node_count" in captured.err


def test_communities_outputs(corpus_file, capsys):
    code = main([
        "communities", "--corpus", str(corpus_file), "--layer", "coauthorship",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("node_id,community_label\n")

    code = main([
        "communities", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--dump-dendrogram",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("removed_edges=0 communities=1 Q=0")

    code = main([
        "communities", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--node", "3672",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("node_id\n")


def test_communities_rejects_node_token_before_the_run(corpus_file, capsys, monkeypatch):
    def must_not_run(graph):
        pytest.fail("girvan_newman ran before the --node token was read")

    monkeypatch.setattr("journet.cli.girvan_newman", must_not_run)
    code = main([
        "communities", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--node", "v1n1p1",
    ])
    assert code == 2
    assert "node id 'v1n1p1' is not an id of the layers' author nodes" in capsys.readouterr().err


def test_communities_rejects_node_with_dendrogram_before_loading(corpus_file, capsys, monkeypatch):
    def must_not_run(*args):
        pytest.fail("communities ran although --node and --dump-dendrogram were both given")

    monkeypatch.setattr("journet.cli.load_corpus", must_not_run)
    monkeypatch.setattr("journet.cli.girvan_newman", must_not_run)
    code = main([
        "communities", "--corpus", str(corpus_file), "--layer", "coauthorship",
        "--node", "3672", "--dump-dendrogram",
    ])
    assert code == 1
    assert "argument --dump-dendrogram: not allowed with argument --node" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["neighbors", "--layer", "coauthorship", "--depth", "1"],
    ["overlap", "--layers", "coauthorship,author-common-pacs"],
    ["rank", "--layers", "coauthorship,author-common-pacs"],
], ids=lambda command: command[0])
def test_query_commands_reject_node_token_before_loading(corpus_file, capsys, monkeypatch, command):
    def must_not_run(*args):
        pytest.fail("the corpus was loaded before the --node token was read")

    monkeypatch.setattr("journet.cli.load_corpus", must_not_run)
    code = main([*command, "--corpus", str(corpus_file), "--node", "v1n1p1"])
    assert code == 2
    assert "node id 'v1n1p1' is not an id of the layers' author nodes" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["v01n1p1", "v0n1p1", "v1n1p01"])
def test_non_canonical_paper_id_is_no_paper_node(corpus_file, capsys, monkeypatch, token):
    # ingest refuses such an id, so --node does too, before the corpus is loaded
    def must_not_run(*args):
        pytest.fail("the corpus was loaded for a paper id that ingest refuses")

    monkeypatch.setattr("journet.cli.load_corpus", must_not_run)
    code = main(["neighbors", "--corpus", str(corpus_file), "--layer", "paper-citation",
                 "--depth", "1", "--node", token])
    assert code == 2
    assert capsys.readouterr().err == (
        f"journet: error: node id {token!r} is not an id of the layers' paper nodes\n")


@pytest.mark.parametrize("depth", ["\u0661", "1_0"], ids=["arabic-indic", "underscore"])
def test_neighbors_depth_in_ascii_digits_only(corpus_file, capsys, depth):
    code = main(["neighbors", "--corpus", str(corpus_file), "--layer", "coauthorship",
                 "--node", "3672", "--depth", depth])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.endswith(
        f"argument --depth: depth must be a whole number in ASCII digits, got {depth!r}\n")


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_neighbors_depth_below_one_is_a_usage_error(corpus_file, capsys, monkeypatch, depth):
    def must_not_run(*args):
        pytest.fail("the corpus was loaded for a depth below 1")

    monkeypatch.setattr("journet.cli.load_corpus", must_not_run)
    code = main(["neighbors", "--corpus", str(corpus_file), "--layer", "coauthorship",
                 "--node", "3672", "--depth", depth])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"argument --depth: depth must be >= 1, got {depth}" in captured.err


@pytest.mark.parametrize("command", ["overlap", "rank"])
def test_layer_list_naming_no_layer_is_a_usage_error(corpus_file, capsys, monkeypatch, command):
    def must_not_run(*args):
        pytest.fail("the node token or the corpus was read for an empty layer list")

    monkeypatch.setattr("journet.cli.load_corpus", must_not_run)
    monkeypatch.setattr("journet.cli._node_for_layers", must_not_run)
    for layers in (",", "", ",,"):
        code = main([command, "--corpus", str(corpus_file), "--node", "101", "--layers", layers])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument --layers: {layers!r} names no layer" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["overlap", "rank"])
def test_unknown_layer_token_is_a_data_error(corpus_file, capsys, command):
    code = main([command, "--corpus", str(corpus_file), "--node", "v1n2p1",
                 "--layers", "paper-citation,,no-such-layer"])
    assert code == 2
    assert "unknown layer 'no-such-layer'" in capsys.readouterr().err


def test_library_and_cli_agree(corpus_file, capsys):
    from journet.corpus import load_corpus
    from journet.layers import Layer, build_layer
    from journet.metrics import metrics_report
    from journet.reports import metrics_kv

    corpus = load_corpus(corpus_file)
    expected = metrics_kv(metrics_report(build_layer(corpus, Layer.COUPLING)))
    code = main(["stats", "--corpus", str(corpus_file), "--layer", "coupling"])
    assert code == 0
    assert capsys.readouterr().out == expected


def test_snapshot_cli_roundtrip(tmp_path, corpus_file, capsys):
    # persisting a snapshot and analyzing it equals --as-of on the original
    from journet.corpus import TimeIndex, load_corpus, snapshot

    snap = snapshot(load_corpus(corpus_file), TimeIndex(1, 1))
    snap_path = tmp_path / "snap.corpus"
    persist_corpus(snap, snap_path)
    main(["stats", "--corpus", str(snap_path), "--layer", "coauthorship"])
    direct = capsys.readouterr().out
    main(["stats", "--corpus", str(corpus_file), "--layer", "coauthorship", "--as-of", "v1n1"])
    via_flag = capsys.readouterr().out
    assert direct == via_flag


def test_main_calls_share_one_parser_and_no_options(corpus_file, capsys):
    from journet.corpus import load_corpus
    from journet.layers import Layer, build_layer
    from journet.metrics import metrics_report
    from journet.reports import metrics_kv

    plain = ["stats", "--corpus", str(corpus_file), "--layer", "coauthorship"]
    assert main([*plain, "--as-of", "v1n1", "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert main(plain) == 0
    second = capsys.readouterr().out
    assert second == metrics_kv(metrics_report(build_layer(load_corpus(corpus_file),
                                                           Layer.COAUTHORSHIP)))
    assert first != second
    assert build_parser() is build_parser()
