"""Exact computation of graded function-space filtrations on the interior
lattice points of zonotopes of unimodular arrangements, together with
the Tutte-polynomial identities that govern them."""

from .analysis import Analysis, compute_filtration
from .arrangement import (
    Cocircuit,
    VectorArrangement,
    enumerate_cocircuits,
    interior_lattice_points,
    loops_and_coloops,
)
from .graphs import (
    Arrow,
    BivariatePolynomial,
    DirectedGraph,
    cographical_arrangement,
    enumerate_oriented_cycles,
    graph_rank,
    theta_subgraphs,
    tutte_of_arrangement,
)
from .harmonics import (
    GradedClass,
    Harmonics,
    divided_power,
    iz_hilbert_series,
    verify_saturation,
)
from .ideals import (
    IdealGenerator,
    k_minus_generators,
    redundant_generators,
    verify_vanishing,
)

__version__ = "0.1.0"
