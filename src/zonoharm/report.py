"""Analysis reports: one structured record per input, rendered as text or JSON.

The JSON schema is versioned and key order is fixed, so identical inputs give
byte-identical output.  Integers whose magnitude exceeds 2**53 are rendered as
decimal strings to stay safe for consumers with double-precision parsers.
"""

from __future__ import annotations

import json

from .analysis import CHECKS, Analysis, DeletionContractionReport
from .arrangement import VectorArrangement
from .graphs import (
    DirectedGraph,
    check_tutte_size,
    cographical_arrangement,
    graph_rank,
    theta_subgraphs,
)

SCHEMA_VERSION = 1
JSON_INT_LIMIT = 2**53
EXACTNESS_ELEMENTS = 4  # usable elements per report that get the exactness rank checks


def build_report(
    source_text: str,
    va: VectorArrangement,
    graph: DirectedGraph | None = None,
    max_degree: int | None = None,
) -> dict:
    """Assemble the full analysis record for an arrangement (or graph) input.

    Raises SizeExceededError before any other work when the Tutte polynomial,
    which every report needs, is past its cap, and NotTotallyUnimodularError
    when the cocircuits reject ``va``; a report therefore always certifies
    that every basis has determinant +-1.
    """
    check_tutte_size(va)
    ctx = Analysis(va, graph, max_degree=max_degree, exact_elements=EXACTNESS_ELEMENTS)
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
        "interiorPoints": [list(p) for p in ctx.points.points],
        "pointCount": h.point_count,
        "tutte": [[i, j, c] for i, j, c in ctx.tutte.terms],
        "izHilbert": list(ctx.iz),
        "qDims": list(h.q_dims),
        "grDims": list(h.gr_dims),
        "saturationIndices": list(h.saturation_indices),
        "topDegree": h.top_degree,
        "truncated": h.truncated,
    }
    if graph is not None:
        report["graph"] = {
            "vertexCount": len(graph.vertices),
            "arrowCount": len(graph.arrows),
            "rank": graph_rank(graph),
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
                for triple in theta_subgraphs(graph, ctx.cycles)
            ],
        }
    report["checks"] = {c.key: _check_json(value) for c, value in results}
    report["pass"] = all(c.passed(value) for c, value in results) and not h.truncated
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


def build_graph_report(source_text: str, graph: DirectedGraph, max_degree: int | None = None) -> dict:
    va = cographical_arrangement(graph)
    return build_report(source_text, va, graph, max_degree=max_degree)


def _stringify_big_ints(value):
    if type(value) is int and abs(value) >= JSON_INT_LIMIT:
        return str(value)
    if isinstance(value, dict):
        return {k: _stringify_big_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_big_ints(v) for v in value]
    return value


def to_json_bytes(report: dict) -> bytes:
    payload = _stringify_big_ints(report)
    return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode("utf-8")


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
    add(f"  topDegree        : {report['topDegree']}" + (" (truncated)" if report["truncated"] else ""))
    add("  checks:")
    for key, value in report["checks"].items():
        if isinstance(value, bool):
            add(f"    {key:<24} {'pass' if value else 'FAIL'}")
            continue
        for rec in value:
            exact = {True: "pass", False: "FAIL", None: "skipped"}[rec["exactness"]]
            ok = DeletionContractionReport.verdict(rec["bijection"], rec["dims"], rec["exactness"])
            verdict = "pass" if ok else "FAIL"
            add(
                f"    delete/contract {rec['element']:<6} {verdict}"
                f" (bijection {'ok' if rec['bijection'] else 'FAIL'},"
                f" dims {'ok' if rec['dims'] else 'FAIL'}, exactness {exact})"
            )
    add(f"  verdict: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
