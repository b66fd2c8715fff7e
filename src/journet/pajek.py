"""Pajek .net text format: byte-deterministic writer and matching parser.

Vertices get dense 1-based indices in canonical node order, labels are
the node ids.  Undirected graphs emit an *Edges section (each edge once,
smaller index first), directed graphs an *Arcs section.  Weights are
always written.  The parser reads each label back through the id rules
of ``graph.ID_RULES``.
"""

from __future__ import annotations

import re

from .corpus import ascii_int
from .graph import ID_RULES, NODE_KINDS, REFERENCE, Graph, NodeRef, build_graph, read_node

_VERTEX_RE = re.compile(r'^([0-9]+)\s+"(.*)"$')


class PajekFormatError(ValueError):
    """Input text is not a Pajek document this parser understands."""


def export_pajek(graph: Graph) -> str:
    """Render a graph as Pajek .net text (LF line endings, trailing newline), row by row
    from ``Graph._link_rows``.  Vertex numbers and weights up to the vertex count are
    texts made once, so a link formats an integer only for a larger weight."""
    nodes = graph.nodes()
    labels = list(map(str, range(top := len(nodes) + 1)))
    numbers = [f"{label} " for label in labels[1:]]  # node i's vertex number, then a space
    lines = [f"*Vertices {len(nodes)}", *(f'{a}"{node.id}"' for a, node in zip(numbers, nodes)),
             "*Arcs" if graph.directed else "*Edges", ""]
    rows = ("".join([f"{a}{numbers[j]}{labels[w] if w < top else w}\n" for j, w in zip(keys, weights)])
            for a, (keys, weights) in zip(numbers, graph._link_rows()))
    return "".join(["\n".join(lines), *rows])


def parse_pajek(text: str, kind: str = "auto") -> Graph:
    """Re-read a document written by export_pajek.

    ``kind`` reads every label as that kind's id with :func:`read_node`,
    so a label its id rule rejects is a bad vertex label.  The default,
    "auto", reads each label as the first kind whose rule accepts it, so
    a cited-work key shaped like an author, paper or PACS id comes back
    as that kind; pass the layer's kind where it has only one.
    """
    lines = text.splitlines()
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise PajekFormatError("line 1: expected '*Vertices N'")
    try:
        expected = ascii_int(lines[0].split()[1])
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
                # "auto": the first kind in NODE_KINDS order whose id rule accepts the
                # label; the empty label, which no rule accepts, fails as a cited-work key
                node = read_node(kind if kind != "auto" else next(
                    (k for k in NODE_KINDS if ID_RULES[k].fullmatch(label)), REFERENCE), label)
            except ValueError as exc:
                raise PajekFormatError(f"line {lineno}: bad vertex label: {exc}") from None
            if index in nodes or node in declared:
                raise PajekFormatError(f"line {lineno}: vertex {line} repeats an earlier vertex")
            declared.add(node)
            nodes[index] = node
            continue
        parts = line.split()
        try:  # two or three fields: weight 1 unless given
            i, j, w = map(ascii_int, parts + ["1"] if len(parts) == 2 else parts)
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
