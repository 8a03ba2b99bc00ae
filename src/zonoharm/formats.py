"""Text formats for graphs and arrangements.

Graph files: one ``vertex <label>`` line per vertex and one
``arrow <id> <tail> <head>`` line per arrow.  Arrangement files: a single
``rank <r>`` line followed by ``col <label> <r integers>`` lines.  Blank
lines and ``#`` comments are ignored in both.
"""

from __future__ import annotations

from .arrangement import VectorArrangement
from .errors import ParseError
from .graphs import Arrow, DirectedGraph
from .linalg import Mat


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        yield lineno, line


def parse_graph(text: str) -> DirectedGraph:
    vertices: list = []
    arrows: list = []
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError(lineno, 1, "expected: vertex <label>")
            if parts[1] in vertices:
                raise ParseError(lineno, len(parts[0]) + 2, f"duplicate vertex {parts[1]!r}")
            vertices.append(parts[1])
        elif parts[0] == "arrow":
            if len(parts) != 4:
                raise ParseError(lineno, 1, "expected: arrow <id> <tail> <head>")
            try:
                ident = int(parts[1])
            except ValueError:
                raise ParseError(lineno, len(parts[0]) + 2, f"arrow id {parts[1]!r} is not an integer")
            if any(a.ident == ident for a in arrows):
                raise ParseError(lineno, len(parts[0]) + 2, f"duplicate arrow id {ident}")
            tail, head = parts[2], parts[3]
            for name in (tail, head):
                if name not in vertices:
                    col = line.index(name, len(parts[0])) + 1
                    raise ParseError(lineno, col, f"unknown vertex {name!r}")
            arrows.append(Arrow(ident=ident, tail=tail, head=head))
        else:
            raise ParseError(lineno, 1, f"unknown directive {parts[0]!r}")
    return DirectedGraph(vertices=tuple(vertices), arrows=tuple(arrows))


def serialize_graph(g: DirectedGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"arrow {a.ident} {a.tail} {a.head}" for a in g.arrows]
    return "\n".join(lines) + "\n"


def parse_arrangement(text: str) -> VectorArrangement:
    rank_value = None
    labels: list = []
    cols: list = []
    last_line = 0
    for lineno, line in _meaningful_lines(text):
        last_line = lineno
        parts = line.split()
        if parts[0] == "rank":
            if rank_value is not None:
                raise ParseError(lineno, 1, "duplicate rank line")
            if len(parts) != 2:
                raise ParseError(lineno, 1, "expected: rank <r>")
            try:
                rank_value = int(parts[1])
            except ValueError:
                raise ParseError(lineno, len(parts[0]) + 2, f"rank {parts[1]!r} is not an integer")
            if rank_value < 0:
                raise ParseError(lineno, len(parts[0]) + 2, "rank must be non-negative")
        elif parts[0] == "col":
            if rank_value is None:
                raise ParseError(lineno, 1, "rank line must come first")
            if len(parts) != 2 + rank_value:
                raise ParseError(lineno, 1, f"expected: col <label> <{rank_value} integers>")
            label = parts[1]
            if label in labels:
                raise ParseError(lineno, len(parts[0]) + 2, f"duplicate column label {label!r}")
            try:
                vec = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise ParseError(lineno, 1, "column entries must be integers")
            labels.append(label)
            cols.append(vec)
        else:
            raise ParseError(lineno, 1, f"unknown directive {parts[0]!r}")
    if rank_value is None:
        raise ParseError(last_line + 1, 1, "missing rank line")
    try:
        return VectorArrangement(
            lattice_rank=rank_value,
            ground=tuple(labels),
            columns=Mat.from_cols(cols, rows=rank_value),
        )
    except ValueError as exc:
        raise ParseError(last_line, 1, str(exc))

