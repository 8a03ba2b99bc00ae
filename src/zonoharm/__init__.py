"""Exact computation of graded function-space filtrations on the interior
lattice points of zonotopes of unimodular arrangements, together with
the Tutte-polynomial identities that govern them.

``Analysis`` and ``compute_filtration`` load on first use: a caller of the
layers below the analysis context, such as ``redundant_generators``, never
compiles it.
"""

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

_ANALYSIS_EXPORTS = ("Analysis", "compute_filtration")


def __getattr__(name: str):
    if name in _ANALYSIS_EXPORTS:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ANALYSIS_EXPORTS})
