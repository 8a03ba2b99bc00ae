#!/usr/bin/env python3
"""Walk the full pipeline on the bundled house graph, two routes.

The graph route builds the cycle-space arrangement from the directed graph;
the matrix route reads the same arrangement presented in the nicer hand-picked
coordinates.  All graded data agree; the literal point coordinates differ by a
unimodular change of basis.
"""

from pathlib import Path

from zonoharm import (
    Analysis,
    cographical_arrangement,
    divided_power,
    k_minus_generators,
    redundant_generators,
    theta_subgraphs,
)
from zonoharm.formats import parse_arrangement, parse_graph

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    graph = parse_graph((DATA / "house.graph").read_text())
    matrix = parse_arrangement((DATA / "house.arr").read_text())

    print("== graph route ==")
    gctx = Analysis(cographical_arrangement(graph), graph)
    print("columns:", gctx.va.columns.col_list())
    for c in gctx.cycles:
        print(f"cycle {c.arrows}  |C+|={len(c.c_plus)} |C-|={len(c.c_minus)}")
    print("theta triples:", len(theta_subgraphs(gctx.cycles)))
    print("coordinatises the dual of the cycle matroid:", gctx.tutte_duality)
    print("su2 poincare (the iz series):", gctx.iz)

    print("\n== matrix route ==")
    ctx = Analysis(matrix)
    print("interior points:", ctx.points)
    for c in ctx.cocircuits:
        print(f"cocircuit {c.covector}  d+={c.d_plus} d-={c.d_minus}")

    h = ctx.harmonics
    print("qDims:", h.q_dims, " grDims:", h.gr_dims, " saturation:", h.saturation_indices)
    print("izHilbert:", ctx.iz)
    print("delete/contract e4:", ctx.deletion_contraction("e4").ok)

    print("\n== ideal layer ==")
    for g in k_minus_generators(ctx.cocircuits):
        print(f"generator: C(<{g.cocircuit.covector}, x> {g.shift:+d}, {g.degree})")
    print("quotient dims:", ctx.power_dims)
    print("redundant generator indices:", redundant_generators(matrix))

    print("\n== divided powers on the first coordinate class ==")
    e = h.coordinate_class(0)
    print("eta values:", e.values)
    for m in (2, 3):
        em = divided_power(h, e, m)
        print(f"e^[{m}] values:", em.values)


if __name__ == "__main__":
    main()
