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
    """(line number, columns, tokens) of each line that is not blank or a
    comment; ``columns[k]`` is where ``tokens[k]`` starts, counted from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        tokens = line.split()
        if not tokens:
            continue
        columns, pos = [], 0
        for tok in tokens:
            pos = line.index(tok, pos)
            columns.append(pos + 1)
            pos += len(tok)
        yield lineno, columns, tokens


def parse_graph(text: str) -> DirectedGraph:
    # dicts keep the order given and find a duplicate in one lookup
    vertices: dict = {}  # label -> None
    arrows: dict = {}  # id -> Arrow
    for lineno, at, parts in _meaningful_lines(text):
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError(lineno, at[0], "expected: vertex <label>")
            if parts[1] in vertices:
                raise ParseError(lineno, at[1], f"duplicate vertex {parts[1]!r}")
            vertices[parts[1]] = None
        elif parts[0] == "arrow":
            if len(parts) != 4:
                raise ParseError(lineno, at[0], "expected: arrow <id> <tail> <head>")
            try:
                ident = int(parts[1])
            except ValueError:
                raise ParseError(lineno, at[1], f"arrow id {parts[1]!r} is not an integer")
            if ident in arrows:
                raise ParseError(lineno, at[1], f"duplicate arrow id {ident}")
            tail, head = parts[2], parts[3]
            for k in (2, 3):
                if parts[k] not in vertices:
                    raise ParseError(lineno, at[k], f"unknown vertex {parts[k]!r}")
            arrows[ident] = Arrow(ident=ident, tail=tail, head=head)
        else:
            raise ParseError(lineno, at[0], f"unknown directive {parts[0]!r}")
    return DirectedGraph(vertices=tuple(vertices), arrows=tuple(arrows.values()))


def serialize_graph(g: DirectedGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"arrow {a.ident} {a.tail} {a.head}" for a in g.arrows]
    return "\n".join(lines) + "\n"


def parse_arrangement(text: str) -> VectorArrangement:
    """Parse an arrangement file.  An error in a token points at its start;
    a missing rank line or columns that do not span point at column 1."""
    rank_value = None
    cols: dict = {}  # label -> column, in the order given
    last_line = 0
    for lineno, at, parts in _meaningful_lines(text):
        last_line = lineno
        if parts[0] == "rank":
            if rank_value is not None:
                raise ParseError(lineno, at[0], "duplicate rank line")
            if len(parts) != 2:
                raise ParseError(lineno, at[0], "expected: rank <r>")
            try:
                rank_value = int(parts[1])
            except ValueError:
                raise ParseError(lineno, at[1], f"rank {parts[1]!r} is not an integer")
            if rank_value < 0:
                raise ParseError(lineno, at[1], "rank must be non-negative")
        elif parts[0] == "col":
            if rank_value is None:
                raise ParseError(lineno, at[0], "rank line must come first")
            if len(parts) != 2 + rank_value:
                raise ParseError(lineno, at[0], f"expected: col <label> <{rank_value} integers>")
            label = parts[1]
            if label in cols:
                raise ParseError(lineno, at[1], f"duplicate column label {label!r}")
            vec = []
            for col, x in zip(at[2:], parts[2:]):
                try:
                    vec.append(int(x))
                except ValueError:
                    raise ParseError(lineno, col, "column entries must be integers")
            cols[label] = tuple(vec)
        else:
            raise ParseError(lineno, at[0], f"unknown directive {parts[0]!r}")
    if rank_value is None:
        raise ParseError(last_line + 1, 1, "missing rank line")
    try:
        return VectorArrangement(
            lattice_rank=rank_value,
            ground=tuple(cols),
            columns=Mat.from_cols(cols.values(), rows=rank_value),
        )
    except ValueError as exc:
        raise ParseError(last_line, 1, str(exc))

