#!/usr/bin/env python3
"""Walk the full pipeline on the bundled house graph, two routes.

The graph route builds the cycle-space arrangement from the directed graph;
the matrix route reads the same arrangement presented in the nicer hand-picked
coordinates.  All graded data agree; the literal point coordinates differ by a
unimodular change of basis.
"""

from pathlib import Path

from zonoharm.arrangement import enumerate_cocircuits, interior_lattice_points
from zonoharm.formats import parse_arrangement, parse_graph
from zonoharm.graphs import (
    cographical_arrangement,
    enumerate_oriented_cycles,
    su2_poincare_polynomial,
    theta_subgraphs,
)
from zonoharm.harmonics import Harmonics, divided_power, iz_hilbert_series, rees_data
from zonoharm.ideals import k_minus_generators, power_ideal_quotient_dims, redundant_generators

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    graph = parse_graph((DATA / "house.graph").read_text())
    matrix = parse_arrangement((DATA / "house.arr").read_text())

    print("== graph route ==")
    va = cographical_arrangement(graph)
    print("columns:", va.columns.col_list())
    for c in enumerate_oriented_cycles(graph):
        print(f"cycle {c.arrows}  |C+|={len(c.c_plus)} |C-|={len(c.c_minus)}")
    print("theta triples:", len(theta_subgraphs(graph)))
    print("su2 poincare:", su2_poincare_polynomial(graph))

    print("\n== matrix route ==")
    print("interior points:", interior_lattice_points(matrix).points)
    for c in enumerate_cocircuits(matrix):
        print(f"cocircuit {c.covector}  d+={c.d_plus} d-={c.d_minus}")

    ctx = Harmonics(matrix)
    rep = ctx.report()
    print("qDims:", rep.q_dims, " grDims:", rep.gr_dims, " saturation:", rep.saturation_indices)
    print("izHilbert:", iz_hilbert_series(matrix))
    print("rees ranks:", [(i, len(rows)) for i, rows in rees_data(ctx)])

    print("\n== ideal layer ==")
    for g in k_minus_generators(matrix):
        print("generator:", g.describe())
    print("quotient dims:", power_ideal_quotient_dims(matrix))
    print("redundant generator indices:", redundant_generators(matrix))

    print("\n== divided powers on the first coordinate class ==")
    e = ctx.coordinate_class(0)
    print("eta values:", e.values)
    for m in (2, 3):
        em = divided_power(ctx, e, m)
        print(f"e^[{m}] values:", em.values)


if __name__ == "__main__":
    main()
