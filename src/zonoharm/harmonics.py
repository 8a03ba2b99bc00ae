"""Degree filtrations of functions on the interior lattice points.

For a totally unimodular arrangement the functions on the interior points
carry two filtrations: the rational one (images of bounded-degree
polynomials) and the integral one (restrictions of bounded-degree
integer-valued polynomials).  This module computes both, compares the
integral lattice with its saturation degree by degree, and gives the
associated graded pieces their divided-power operations.  An arrangement
has one filtration, always built up to the degree whose piece is every
function on the points; its analysis context builds it once.  The module
reads only points: the series that the graded dimensions are compared
with is read off the Tutte polynomial in ``graphs``.

Each degree's lattice L in Z^n is kept as a snapshot of the echelon it had
once that degree's rows were in: its rows and pivot columns.  The pivots of
an echelon basis depend only on L, so they are the canonical pivots.  When
every pivot is 1, Z^n / L is free, so L is saturated (index 1) and its
echelon is a basis of its saturation.  In particular a lattice with n rows
and unit pivots is Z^n, which completes the filtration: that degree stops
inserting its rows there, since every further row reduces to 0 and no
snapshot, dimension or index can change.  Otherwise ``linalg.saturate`` gives
an echelon basis of the saturation, the kernel of the kernel, and the index
as the quotient of the pivot products, so a lattice that is not saturated is
still reported.  The dimensions and top degree are read off the echelons.

A graded class is an integral representative given by its values on the
points.  Its divided powers are entrywise binomial coefficients, checked by
lattice membership: integrality against the lattice of the target degree,
and the law m! * e^[m] = e^m against the saturated lattice of the degree
below.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .errors import ArgumentError, CertificateError, DegreeOverflowError, NotIntegralError
from .funcspace import binom_int, binomial_product_rows
from .linalg import IntRowLattice, in_row_lattice, saturate


class GradedClass(NamedTuple):
    """An element of one graded piece, given by an integral representative.

    ``values`` are the representative's integer values on the interior
    points, in their order; it lies in the degree-<= ``degree`` lattice.
    """

    degree: int
    values: tuple


class Harmonics:
    """Filtration data of the functions on ``points``, a tuple of distinct
    points of Z^r, each a tuple of ints, such as an arrangement's interior
    points, whose order fixes the columns, and refused with ArgumentError
    otherwise.  It reads nothing else: r is the length of a point, and no
    points give the zero filtration.

    Degree by degree, the evaluation rows of the binomial products (each
    built from one row of the previous degree, see ``binomial_product_rows``)
    are added to one integer row lattice, up to the row that makes it Z^n,
    past which no row is built, and each degree keeps a snapshot of its
    echelon.  A degree whose echelon has all pivots 1 gets saturation index
    1, with no kernel; any other degree falls back to ``saturate``.  A rank
    below n past degree n - 1 raises ``CertificateError``.
    """

    def __init__(self, points: tuple):
        # the lattice must reach rank n, which n distinct points do by degree
        # n - 1 (interpolate along a linear form injective on them): repeated
        # points, and points equal on the first point's coordinates or once
        # the echelon truncates non-integers, give equal columns; list points
        # cannot be hashed for the distinct-points check
        if (
            not all(isinstance(p, tuple) for p in points)
            or len(set(map(len, points))) > 1
            or not all(isinstance(x, int) for p in points for x in p)
        ):
            raise ArgumentError("Harmonics needs integer points of one length")
        if len(set(points)) != len(points):
            raise ArgumentError("Harmonics needs distinct points")
        self.points = points
        n = len(points)
        self.point_count = n
        self.saturation_indices: list = []
        self._echelons: list = []  # (rows, pivot_cols) of the degree-<=i lattice
        self._saturated: list = []  # (rows, pivot_cols) of its saturation
        if n:
            lattice = IntRowLattice(n)
            grown, grown_pivots = lattice.rows, lattice.pivot_cols  # updated in place
            for block in binomial_product_rows(points, len(points[0])):
                for row in block:
                    lattice.add(row)
                    if len(grown) == n and all(r[c] == 1 for r, c in zip(grown, grown_pivots)):
                        break  # the lattice is Z^n: every further row reduces to 0
                rows, pivots = tuple(grown), tuple(grown_pivots)
                self._echelons.append((rows, pivots))
                if all(row[c] == 1 for row, c in zip(rows, pivots)):
                    # unit pivots, which are the canonical pivots: Z^n / L is
                    # free, so L is its own saturation
                    sat, index = rows, 1
                else:
                    sat, index = saturate(rows, n)
                self._saturated.append((sat, pivots))
                self.saturation_indices.append(index)
                if len(rows) == n:
                    break
                if len(self._echelons) == n:
                    raise CertificateError(f"{n} points not spanned by degree {n - 1}")
        self.q_dims = [len(rows) for rows, _ in self._echelons]
        self.top_degree = max(len(self._echelons) - 1, 0)

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
        """Rational dimension of the degree-<=i filtered piece, at any degree."""
        return len(self.echelon(degree)[0])

    def saturated_echelon(self, degree: int) -> tuple:
        """(rows, pivot_cols): an echelon basis of the saturated degree-<=i
        lattice.  It shares the lattice's pivot columns, since both span one
        Q-space; with unit pivots it is the lattice's own echelon."""
        d = self._degree(degree)
        return ((), ()) if d is None else self._saturated[d]

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
        if not 0 <= j < len(self.points[0]):
            raise ValueError("coordinate index out of range")
        return GradedClass(degree=1, values=tuple(p[j] for p in self.points))


def verify_saturation(h: Harmonics) -> bool:
    """True iff every degree's integral lattice equals its saturation."""
    return all(ix == 1 for ix in h.saturation_indices)


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

