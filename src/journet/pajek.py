"""Pajek .net text format: byte-deterministic writer and matching parser.

Vertices get dense 1-based indices in canonical node order, labels are
the node ids.  Undirected graphs emit an *Edges section (each edge once,
smaller index first), directed graphs an *Arcs section.  Weights are
always written.
"""

from __future__ import annotations

import re

from .corpus import PACS_RE, PAPER_ID_RE
from .graph import (
    Graph,
    NodeRef,
    author_node,
    build_graph,
    pacs_node,
    paper_node,
    reference_node,
)

_VERTEX_RE = re.compile(r'^(\d+)\s+"(.*)"$')


class PajekFormatError(ValueError):
    """Input text is not a Pajek document this parser understands."""


def export_pajek(graph: Graph) -> str:
    """Render a graph as Pajek .net text (LF line endings, trailing newline), row by row."""
    nodes = graph.nodes()
    lines = [f"*Vertices {len(nodes)}"]
    lines += [f'{i} "{node.id}"' for i, node in enumerate(nodes, start=1)]
    lines += ["*Arcs" if graph.directed else "*Edges", ""]
    rows = ("".join(f"{i + 1} {j + 1} {w}\n" for j, w in row.items() if graph.directed or i < j)
            for i, row in enumerate(graph.rows()))
    return "".join(["\n".join(lines), *rows])


def infer_node(label: str) -> NodeRef:
    """Guess node kind from the shape of an id.

    Integer labels are author ids, v#n#p# labels are papers, NN.NN.xx
    labels PACS codes, anything else a cited-work key.  The id spaces
    make this unambiguous for graphs the library itself produces.
    """
    if re.fullmatch(r"-?\d+", label):
        return author_node(int(label))
    if PAPER_ID_RE.match(label):
        return paper_node(label)
    if PACS_RE.match(label):
        return pacs_node(label)
    return reference_node(label)


def parse_pajek(text: str, kind: str = "auto") -> Graph:
    """Re-read a document written by export_pajek.

    ``kind`` forces every node to one kind; the default infers kinds per
    label via :func:`infer_node`.
    """
    def make_node(label):
        if kind == "auto":
            return infer_node(label)
        return NodeRef(kind, int(label) if kind == "author" else label)

    lines = text.splitlines()
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise PajekFormatError("line 1: expected '*Vertices N'")
    try:
        expected = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise PajekFormatError("line 1: expected '*Vertices N'") from None

    nodes: dict[int, NodeRef] = {}
    declared: set[NodeRef] = set()
    directed = None
    links = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.lower() in ("*edges", "*arcs"):
            if directed is not None:
                raise PajekFormatError(f"line {lineno}: second section header {line!r}")
            directed = line.lower() == "*arcs"
            continue
        if directed is None:
            m = _VERTEX_RE.match(line)
            if not m:
                raise PajekFormatError(f"line {lineno}: bad vertex line {line!r}")
            index, label = int(m.group(1)), m.group(2)
            try:
                node = make_node(label)
            except ValueError as exc:
                raise PajekFormatError(f"line {lineno}: bad vertex label: {exc}") from None
            if index in nodes or node in declared:
                raise PajekFormatError(f"line {lineno}: vertex {line} repeats an earlier vertex")
            declared.add(node)
            nodes[index] = node
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise PajekFormatError(f"line {lineno}: bad link line {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise PajekFormatError(f"line {lineno}: bad link line {line!r}") from None
        if i not in nodes or j not in nodes:
            raise PajekFormatError(f"line {lineno}: link references unknown vertex index")
        if i == j:
            raise PajekFormatError(f"line {lineno}: self-loop link {line!r}")
        if w < 1:
            raise PajekFormatError(f"line {lineno}: link weight below 1 in {line!r}")
        links.append((nodes[i], nodes[j], w))

    if len(nodes) != expected:
        raise PajekFormatError(f"vertex count {len(nodes)} does not match header {expected}")
    if directed is None:
        raise PajekFormatError("missing *Edges or *Arcs section")
    return build_graph(directed, links, isolated_nodes=nodes.values())
