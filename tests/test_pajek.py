import random
import re

import pytest

from journet.graph import author_node, build_graph, pacs_node, paper_node, reference_node
from journet.pajek import PajekFormatError, export_pajek, parse_pajek

from conftest import random_graph

n = author_node


def test_export_triangle_exact_bytes():
    g = build_graph(False, [(n(1), n(2), 1), (n(1), n(3), 1), (n(2), n(3), 1)])
    assert export_pajek(g) == (
        '*Vertices 3\n'
        '1 "1"\n'
        '2 "2"\n'
        '3 "3"\n'
        '*Edges\n'
        '1 2 1\n'
        '1 3 1\n'
        '2 3 1\n'
    )


def test_export_empty_graph():
    assert export_pajek(build_graph(False, [])) == "*Vertices 0\n*Edges\n"


def test_export_directed_uses_arcs():
    g = build_graph(True, [(paper_node("v1n1p1"), paper_node("v1n1p2"), 1)])
    text = export_pajek(g)
    assert "*Arcs" in text and "*Edges" not in text
    assert '1 "v1n1p1"' in text


def test_round_trip_random_graphs():
    for seed in range(20):
        rng = random.Random(500 + seed)
        g = random_graph(rng, rng.randint(1, 20), 0.25)
        text = export_pajek(g)
        parsed = parse_pajek(text)
        assert parsed == g
        assert export_pajek(parsed) == text


def test_round_trip_mixed_kinds():
    g = build_graph(
        False,
        [
            (n(7), paper_node("v2n1p3"), 2),
            (paper_node("v2n1p3"), reference_node("some cited work"), 1),
        ],
    )
    assert parse_pajek(export_pajek(g)) == g
    # blank lines, of spaces or of nothing, are skipped anywhere
    assert parse_pajek(export_pajek(g).replace("\n", "\n\n  \n")) == g


def test_round_trip_directed():
    g = build_graph(
        True,
        [(paper_node("v1n1p1"), paper_node("v1n1p2"), 1),
         (paper_node("v1n1p2"), paper_node("v1n1p1"), 3)],
    )
    assert parse_pajek(export_pajek(g)) == g


def test_auto_kind_reads_each_label_by_its_shape():
    # a non-canonical paper id, which ingest refuses, is read as a cited-work key
    text = ('*Vertices 7\n1 "42"\n2 "v4n4p14"\n3 "05.50.+q"\n4 "smith 1990"\n5 "-3"\n'
            '6 "v04n4p14"\n7 "v0n1p1"\n*Edges\n')
    assert parse_pajek(text).nodes() == [
        author_node(-3), author_node(42), pacs_node("05.50.+q"), paper_node("v4n4p14"),
        reference_node("smith 1990"), reference_node("v04n4p14"), reference_node("v0n1p1"),
    ]


def test_auto_kind_rejects_a_label_no_rule_accepts():
    with pytest.raises(PajekFormatError, match="line 3: bad vertex label"):
        parse_pajek('*Vertices 2\n1 "7"\n2 ""\n*Edges\n')


@pytest.mark.parametrize("kind, good, bad", [
    ("paper", "v1n1p1", "foo"), ("paper", "v1n1p1", "42"), ("paper", "v1n1p1", "v1n1p1 "),
    ("pacs", "05.50.+q", "xx"), ("pacs", "05.50.+q", "v1n1p1"), ("pacs", "05.50.+q", "05.50.+qq"),
    ("author", "7", "+5"), ("author", "7", "\u0661\u0662"), ("paper", "v1n1p1", "v\u0661n1p1"),
    ("reference", "7", ""), ("paper", "v1n1p1", "v01n1p1"), ("paper", "v1n1p1", "v0n1p1"),
    ("paper", "v1n1p1", "v1n0p1"), ("paper", "v1n1p1", "v1n1p01"),
])
def test_forced_kind_rejects_a_label_of_another_shape(kind, good, bad):
    text = f'*Vertices 2\n1 "{good}"\n2 "{bad}"\n*Edges\n'
    with pytest.raises(PajekFormatError,
                       match=re.escape(f"line 3: bad vertex label: {bad!r} is not a valid {kind} id")):
        parse_pajek(text, kind=kind)


def test_parse_with_forced_kind():
    text = '*Vertices 2\n1 "10"\n2 "20"\n*Edges\n1 2 1\n'
    g = parse_pajek(text, kind="reference")
    assert g.nodes() == [reference_node("10"), reference_node("20")]


def test_parse_rejects_malformed():
    with pytest.raises(PajekFormatError, match="line 1"):
        parse_pajek("nonsense\n")
    with pytest.raises(PajekFormatError, match="vertex"):
        parse_pajek('*Vertices 1\nbroken\n*Edges\n')
    with pytest.raises(PajekFormatError, match="unknown vertex"):
        parse_pajek('*Vertices 1\n1 "1"\n*Edges\n1 5 1\n')
    with pytest.raises(PajekFormatError, match="count"):
        parse_pajek('*Vertices 3\n1 "1"\n*Edges\n')
    with pytest.raises(PajekFormatError, match="Edges"):
        parse_pajek('*Vertices 1\n1 "1"\n')
    for line in ("1", "1 2 1 1"):  # a link line holds two or three fields
        with pytest.raises(PajekFormatError, match=f"^line 5: bad link line '{line}'$"):
            parse_pajek(f'*Vertices 2\n1 "1"\n2 "2"\n*Edges\n{line}\n')
    with pytest.raises(PajekFormatError, match="line 4: self-loop link '1 1 1'"):
        parse_pajek('*Vertices 1\n1 "1"\n*Edges\n1 1 1\n')
    for weight in ("0", "-3"):
        with pytest.raises(PajekFormatError, match=f"line 5: link weight below 1 in '1 2 {weight}'"):
            parse_pajek(f'*Vertices 2\n1 "1"\n2 "2"\n*Arcs\n1 2 {weight}\n')


@pytest.mark.parametrize("text, message", [
    ('*Vertices 2\n\u0661 "1"\n2 "2"\n*Edges\n', "line 2: bad vertex line"),
    ('*Vertices 2\n1 "1"\n2 "2"\n*Edges\n1 2 1_0\n', "line 5: bad link line '1 2 1_0'"),
    ('*Vertices 2\n1 "1"\n2 "2"\n*Edges\n1 \u0662 1\n', "line 5: bad link line"),
    ('*Vertices \u0662\n1 "1"\n2 "2"\n*Edges\n', "line 1: expected"),
], ids=["vertex-index", "link-weight", "link-end", "vertex-count"])
def test_parse_reads_ascii_digits_only(text, message):
    with pytest.raises(PajekFormatError, match=f"^{re.escape(message)}"):
        parse_pajek(text)


def test_parse_still_reads_a_signed_link_field():
    g = parse_pajek('*Vertices 2\n1 "1"\n2 "2"\n*Edges\n+1 2 +3\n')
    assert list(g.links()) == [(author_node(1), author_node(2), 3)]


def test_parse_rejects_repeated_label():
    with pytest.raises(PajekFormatError, match='line 3: vertex 2 "a" repeats'):
        parse_pajek('*Vertices 2\n1 "a"\n2 "a"\n*Edges\n', kind="reference")
    # distinct labels that name one node are a repeat as well
    with pytest.raises(PajekFormatError, match='line 4: vertex 3 "07" repeats'):
        parse_pajek('*Vertices 3\n1 "7"\n2 "8"\n3 "07"\n*Edges\n')
    # a repeated index would silently drop the vertex it first named
    with pytest.raises(PajekFormatError, match='line 3: vertex 1 "b" repeats'):
        parse_pajek('*Vertices 2\n1 "a"\n1 "b"\n2 "c"\n*Edges\n1 2 1\n', kind="reference")


def test_parse_rejects_second_section_header():
    # read as one directed section, the edge 1-2 would become the arc 1->2
    with pytest.raises(PajekFormatError, match=r"line 7: second section header '\*Arcs'"):
        parse_pajek('*Vertices 3\n1 "1"\n2 "2"\n3 "3"\n*Edges\n1 2 1\n*Arcs\n2 3 1\n')
    with pytest.raises(PajekFormatError, match=r"line 4: second section header '\*Edges'"):
        parse_pajek('*Vertices 1\n1 "1"\n*Edges\n*Edges\n')


def test_parse_reports_non_integer_author_label_with_line():
    with pytest.raises(PajekFormatError, match="line 3: bad vertex label"):
        parse_pajek('*Vertices 2\n1 "10"\n2 "smith"\n*Edges\n', kind="author")
