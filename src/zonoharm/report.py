"""Analysis reports: one structured record per input, rendered as text or JSON.

The JSON schema is versioned and key order is fixed, so identical inputs give
byte-identical output.  Integers whose magnitude exceeds 2**53 are rendered as
decimal strings to stay safe for consumers with double-precision parsers.

The JSON is written in one recursive pass, byte for byte what
``json.dumps(..., indent=2)`` gives on the same tree with its big integers
turned into strings, with strings escaped by the standard library's C
escaper.  The ``json`` package is not imported: with an indent it runs its
pure-Python encoder anyway, and every CLI call would pay for the import.
"""

from __future__ import annotations

from _json import encode_basestring_ascii

from .analysis import CHECKS, Analysis
from .arrangement import VectorArrangement, check_cocircuit_scan_size
from .graphs import DirectedGraph, cographical_arrangement, theta_subgraphs

SCHEMA_VERSION = 2
JSON_INT_LIMIT = 2**53


def build_report(
    source_text: str,
    va: VectorArrangement,
    graph: DirectedGraph | None = None,
) -> dict:
    """Assemble the full analysis record for an arrangement (or graph) input.

    Raises SizeExceededError before any other work when the cocircuit scan,
    which every report needs, is past its cap, and NotTotallyUnimodularError
    when the cocircuits reject ``va``; a report therefore always certifies
    that every basis has determinant +-1.
    """
    check_cocircuit_scan_size(va)
    ctx = Analysis(va, graph)
    h = ctx.harmonics
    results = [(c, c.run(ctx)) for c in CHECKS if c.key]
    loops, coloops = ctx.loops_and_coloops
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "graph" if graph is not None else "arrangement",
        "input": source_text,
        "arrangement": {
            "latticeRank": va.lattice_rank,
            "groundSize": va.size,
            "groundSet": list(va.ground),
            "totallyUnimodular": True,
            "loops": list(loops),
            "coloops": list(coloops),
        },
        "cocircuits": [
            {
                "covector": list(c.covector),
                "dPlus": c.d_plus,
                "dMinus": c.d_minus,
                "support": list(c.support(va.ground)),
            }
            for c in ctx.cocircuits
        ],
        "interiorPoints": [list(p) for p in ctx.points],
        "pointCount": h.point_count,
        "tutte": [[i, j, c] for i, j, c in ctx.tutte.terms],
        "izHilbert": list(ctx.iz),
        "qDims": list(h.q_dims),
        "grDims": list(h.gr_dims),
        "saturationIndices": list(h.saturation_indices),
        "topDegree": h.top_degree,
        "truncated": False,  # the filtration is always built to its top degree
    }
    if graph is not None:
        report["graph"] = {
            "vertexCount": len(graph.vertices),
            "arrowCount": len(graph.arrows),
            "rank": len(ctx.forest),
            "tutte": [[i, j, c] for i, j, c in ctx.graph_tutte.terms],
            # t^rank(G) T_G(1/t, 0) is the iz series once tutte_duality holds,
            # and tutteIdentity fails a graph report where it does not
            "su2Poincare": list(ctx.iz),
            "orientedCycles": [
                {
                    "arrows": [[i, s] for i, s in c.arrows],
                    "dPlus": len(c.c_plus),
                    "dMinus": len(c.c_minus),
                    "classVector": list(c.class_vector),
                }
                for c in ctx.cycles
            ],
            "thetaTriples": [
                [[list(a) for a in c.arrows] for c in triple]
                for triple in theta_subgraphs(ctx.cycles)
            ],
        }
    report["checks"] = {c.key: _check_json(value) for c, value in results}
    report["pass"] = all(c.passed(value) for c, value in results)
    return report


def _check_json(value):
    """Boolean verdicts as they are; deletion/contraction reports as records."""
    if isinstance(value, bool):
        return value
    return [
        {
            "element": r.element,
            "bijection": r.bijection_ok,
            "dims": r.dims_ok,
            "exactness": r.exactness_ok,
        }
        for r in value
    ]


def build_graph_report(source_text: str, graph: DirectedGraph) -> dict:
    va = cographical_arrangement(graph)
    return build_report(source_text, va, graph)


def _write_json(value, indent: str, out: list) -> None:
    """Append the indent=2 JSON of ``value``, nested at ``indent``, to ``out``.

    Dicts (with str keys), lists, tuples, str, int, bool and None only; the
    escaper and the final branch raise TypeError on anything else."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        text = str(value)
        out.append(text if -JSON_INT_LIMIT < value < JSON_INT_LIMIT else f'"{text}"')
    elif type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json_bytes(report: dict) -> bytes:
    """The report as JSON with two-space indents and a final newline, in its
    own key order; integers of magnitude >= 2**53 become decimal strings."""
    out: list = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _poly_str(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, j, c in terms:
        piece = []
        if abs(c) != 1 or (i == 0 and j == 0):
            piece.append(str(abs(c)))
        if i:
            piece.append("x" if i == 1 else f"x^{i}")
        if j:
            piece.append("y" if j == 1 else f"y^{j}")
        body = "*".join(piece) if piece else "1"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def render_text(report: dict) -> str:
    lines = []
    add = lines.append
    add(f"zonoharm analysis (schema {report['schemaVersion']}, kind {report['kind']})")
    arr = report["arrangement"]
    add(f"  lattice rank     : {arr['latticeRank']}")
    add(f"  ground set       : {arr['groundSize']} elements: {' '.join(arr['groundSet'])}")
    add(f"  totally unimodular: {arr['totallyUnimodular']}")
    if arr["loops"] or arr["coloops"]:
        add(f"  loops: {arr['loops']}  coloops: {arr['coloops']}")
    if "graph" in report:
        gr = report["graph"]
        add(f"  graph            : {gr['vertexCount']} vertices, {gr['arrowCount']} arrows, rank {gr['rank']}")
        add(f"  oriented cycles  : {len(gr['orientedCycles'])} (one per opposite pair)")
        add(f"  theta triples    : {len(gr['thetaTriples'])}")
        add(f"  graph tutte      : {_poly_str([tuple(t) for t in gr['tutte']])}")
        add(f"  su2 poincare     : {gr['su2Poincare']}")
    add("  cocircuits (covector, d+, d-):")
    width = max((len(str(c["covector"])) for c in report["cocircuits"]), default=4)
    for c in report["cocircuits"]:
        add(f"    {str(c['covector']).ljust(width)}  {c['dPlus']:2d}  {c['dMinus']:2d}")
    pts = " ".join("(" + ",".join(str(x) for x in p) + ")" for p in report["interiorPoints"])
    add(f"  interior points ({report['pointCount']}): {pts}")
    add(f"  tutte (arrangement): {_poly_str([tuple(t) for t in report['tutte']])}")
    add(f"  izHilbert        : {report['izHilbert']}")
    add(f"  qDims            : {report['qDims']}")
    add(f"  grDims           : {report['grDims']}")
    add(f"  saturationIndices: {report['saturationIndices']}")
    add(f"  topDegree        : {report['topDegree']}")
    add("  checks:")
    for key, value in report["checks"].items():
        if isinstance(value, bool):
            add(f"    {key:<24} {'pass' if value else 'FAIL'}")
            continue
        for rec in value:
            ok = rec["bijection"] and rec["dims"] and rec["exactness"]
            add(
                f"    delete/contract {rec['element']:<6} {'pass' if ok else 'FAIL'}"
                f" (bijection {'ok' if rec['bijection'] else 'FAIL'},"
                f" dims {'ok' if rec['dims'] else 'FAIL'},"
                f" exactness {'pass' if rec['exactness'] else 'FAIL'})"
            )
    add(f"  verdict: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
