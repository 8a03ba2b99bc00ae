"""Degree filtrations of functions on the interior lattice points.

For a totally unimodular arrangement the functions on the interior points
carry two filtrations: the rational one (images of bounded-degree
polynomials) and the integral one (restrictions of bounded-degree
integer-valued polynomials).  This module computes both, compares the
integral lattice with its saturation degree by degree, and gives the
associated graded pieces their divided-power operations.

Each degree's lattice L in Z^n is kept as a snapshot of the echelon it had
once that degree's rows were in: its rows and pivot columns.  The pivots of
an echelon basis depend only on L, so they are the canonical pivots.  When
every pivot is 1, Z^n / L is free, so L is saturated (index 1) and its
echelon is a basis of its saturation.  Otherwise ``linalg.saturate`` gives
the saturated rows as the integer kernel of the integer kernel, and the
index as the quotient of the pivot products, so a lattice that is not
saturated is still reported.  Only the divided-power generation check forms
canonical row-style Hermite rows, and only at the degrees ``saturate`` ran
on; the deletion/contraction check reads echelons.

A graded class is an integral representative given by its values on the
points.  Its divided powers are entrywise binomial coefficients, checked by
lattice membership: integrality against the lattice of the target degree,
and the law m! * e^[m] = e^m against the saturated lattice of the degree
below.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .arrangement import VectorArrangement, interior_lattice_points
from .errors import DegreeOverflowError, NotIntegralError
from .funcspace import binom_int, binomial_product_rows
from .graphs import tutte_of_arrangement
from .linalg import IntRowLattice, hermite_rows, in_row_lattice, saturate


class GradedClass(NamedTuple):
    """An element of one graded piece, given by an integral representative.

    ``values`` are the representative's integer values on the interior
    points, in their order; it lies in the degree-<= ``degree`` lattice.
    """

    degree: int
    values: tuple


class Harmonics:
    """Filtration data for one arrangement, computed once and shared.

    Pass the arrangement's interior points when they are already known.
    Degree by degree, the evaluation rows of the binomial products (each
    built from one row of the previous degree, see ``binomial_product_rows``)
    are added to one integer row lattice, and each degree keeps a snapshot
    of its echelon.  A degree whose echelon has all pivots 1 gets saturation
    index 1, with no kernel; any other degree falls back to ``saturate``.
    """

    def __init__(self, va: VectorArrangement, max_degree: int | None = None, points=None):
        self.va = va
        self.points = interior_lattice_points(va) if points is None else points
        n = len(self.points)
        self.point_count = n
        self.q_dims: list = []
        self.saturation_indices: list = []
        self._echelons: list = []  # (rows, pivot_cols) of the degree-<=i lattice
        self._saturated: list = []  # saturate's rows, or None where the pivots are 1
        self.truncated = False
        if n == 0:
            self.top_degree = 0
            return
        lattice = IntRowLattice(n)
        blocks = binomial_product_rows(self.points.points, va.lattice_rank)
        for degree, block in enumerate(blocks):
            for row in block:
                lattice.add(row)
            rows, pivots = tuple(lattice.rows), tuple(lattice.pivot_cols)
            self._echelons.append((rows, pivots))
            self.q_dims.append(len(rows))
            if all(row[c] == 1 for row, c in zip(rows, pivots)):
                # unit pivots, which are the canonical pivots: Z^n / L is
                # free, so L is its own saturation
                self.saturation_indices.append(1)
                self._saturated.append(None)
            else:
                sat, index = saturate(rows, n)
                self.saturation_indices.append(index)
                self._saturated.append(sat)
            if len(rows) == n:
                self.top_degree = degree
                break
            if max_degree is not None and degree >= max_degree:
                self.top_degree = degree
                self.truncated = True
                break

    # -- basic accessors -------------------------------------------------

    def _degree(self, degree: int) -> int | None:
        """The stored degree that holds the degree-<=i piece; None when that
        piece is 0 (no points, or a negative degree)."""
        if self.point_count == 0 or degree < 0:
            return None
        return min(degree, self.top_degree)

    def echelon(self, degree: int) -> tuple:
        """(rows, pivot_cols): an echelon basis of the degree-<=i lattice."""
        d = self._degree(degree)
        return ((), ()) if d is None else self._echelons[d]

    def q_dim(self, degree: int) -> int:
        """Rational dimension of the degree-<=i filtered piece (extended)."""
        if degree < 0:
            return 0
        if degree <= self.top_degree:
            return self.q_dims[degree] if self.q_dims else 0
        return self.point_count

    def saturated_echelon(self, degree: int) -> tuple:
        """(rows, pivot_cols): an echelon basis of the saturated degree-<=i
        lattice.  It shares the lattice's pivot columns, since both span one
        Q-space; with unit pivots it is the lattice's own echelon."""
        d = self._degree(degree)
        if d is None:
            return ((), ())
        rows, pivots = self._echelons[d]
        sat = self._saturated[d]
        return (rows if sat is None else sat, pivots)

    @property
    def gr_dims(self) -> tuple:
        """Dimensions of the graded pieces: successive differences of ``q_dims``."""
        return tuple(q - p for p, q in zip([0, *self.q_dims], self.q_dims))

    # -- graded classes ---------------------------------------------------

    def unit_class(self) -> GradedClass:
        return GradedClass(degree=0, values=(1,) * self.point_count)

    def coordinate_class(self, j: int) -> GradedClass:
        """Degree-1 class of the j-th coordinate function."""
        if self.top_degree < 1:
            raise DegreeOverflowError("filtration has no degree-1 piece")
        if not 0 <= j < self.va.lattice_rank:
            raise ValueError("coordinate index out of range")
        return GradedClass(degree=1, values=tuple(p[j] for p in self.points.points))


def compute_filtration(va: VectorArrangement, max_degree: int | None = None) -> Harmonics:
    """The filtration of ``va`` on its own interior points: rational
    dimensions, integral lattices, and saturation indices."""
    return Harmonics(va, max_degree=max_degree)


def verify_saturation(h: Harmonics) -> bool:
    """True iff every degree's integral lattice equals its saturation."""
    return all(ix == 1 for ix in h.saturation_indices)


def iz_hilbert_series(va: VectorArrangement, tutte=None) -> tuple:
    """Coefficients of t^(|A|-r) * T(0, 1/t) from the arrangement's Tutte polynomial.

    Pass the arrangement's Tutte polynomial when it is already known.
    """
    t = tutte_of_arrangement(va) if tutte is None else tutte
    nullity = va.size - va.lattice_rank
    ys = t.y_slice(0)  # {j: coeff of x^0 y^j}
    coeffs = [ys.get(nullity - m, 0) for m in range(nullity + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def divided_power(ctx: Harmonics, cls: GradedClass, m: int) -> GradedClass:
    """The m-th divided power of a positive-degree class.

    Applies the entrywise binomial coefficient C(-, m) to the class's values.
    The result must lie in the integral lattice of degree m*i, and
    m! * result - cls^m must lie in the saturated lattice of degree m*i - 1,
    whose integer points are those of the lower filtered piece's Q-span;
    either failure raises ``NotIntegralError``.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return ctx.unit_class()
    if m == 1:
        return cls
    if cls.degree < 1:
        raise ValueError("divided powers require a class of positive degree")
    target = m * cls.degree
    if target > ctx.top_degree:
        raise DegreeOverflowError(
            f"degree {target} exceeds the top filtration degree {ctx.top_degree}"
        )
    w = tuple(binom_int(v, m) for v in cls.values)
    if not in_row_lattice(*ctx.echelon(target), [w]):
        raise NotIntegralError("divided power does not lie in the integral span")
    diff = tuple(factorial(m) * a - b**m for a, b in zip(w, cls.values))
    if not in_row_lattice(*ctx.saturated_echelon(target - 1), [diff]):
        raise NotIntegralError(f"m! * e^[m] - e^m is not in the degree-{target - 1} piece")
    return GradedClass(degree=target, values=w)


def divided_power_generation_check(ctx: Harmonics) -> bool:
    """Degree-1 classes generate everything under divided powers.

    The degree-<=i lattice is spanned by the entrywise products
    prod_j C(z_j, m_j), the products of divided powers of the coordinate
    classes, so for every degree i its canonical rows must equal those of
    the saturated lattice of restricted degree-<=i integer-valued functions.
    A degree with unit pivots is its own saturation, so only the degrees
    that ``saturate`` ran on are compared, and only they form canonical rows.
    """
    return all(
        hermite_rows(*ctx._echelons[d]) == sat
        for d, sat in enumerate(ctx._saturated)
        if sat is not None
    )

