"""Degree filtrations of functions on the interior lattice points.

For a totally unimodular arrangement the functions on the interior points
carry two filtrations: the rational one (images of bounded-degree
polynomials) and the integral one (restrictions of bounded-degree
integer-valued polynomials).  This module computes both, compares the
integral lattice with its saturation degree by degree, builds the associated
graded pieces with their divided-power operations.

The saturation of each degree's lattice L in Z^n is certified where it can
be: when every pivot of the canonical row form of L is 1, Z^n / L is free, so
L is saturated (index 1) and its canonical rows are the saturated rows.
Otherwise the index comes from the Smith form and the saturated rows from two
integer kernels, so a lattice that is not saturated is still reported.

The per-degree lattice bases double as Rees-algebra data; the weight
attached to degree i is i itself (a topological grading would double it).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .arrangement import VectorArrangement, interior_lattice_points
from .errors import DegreeOverflowError, NotIntegralError
from .funcspace import binom_int, binomial_product_rows, binomial_products_up_to
from .graphs import tutte_of_arrangement
from .linalg import (
    IntRowLattice,
    Mat,
    hermite_normal_form,
    rank,
    saturation,
    saturation_index,
    smith_divisors,
    solve_row_lattice,
)


@dataclass(frozen=True)
class FiltrationReport:
    """Per-degree summary of the filtration on functions on the point set.

    ``q_dims[i]`` is the rational dimension of the degree-<=i piece,
    ``gr_dims`` its successive differences, ``z_lattice_bases[i]`` the Hermite
    form of the lattice of restricted degree-<=i integer-valued polynomials,
    and ``saturation_indices[i]`` the index of that lattice in its saturation.
    """

    point_count: int
    q_dims: tuple
    gr_dims: tuple
    z_lattice_bases: tuple
    saturation_indices: tuple
    top_degree: int
    truncated: bool = False


@dataclass(frozen=True)
class GradedClass:
    """An element of one graded piece, with an integral representative.

    ``representative`` holds integer coefficients over the binomial-product
    basis of degree <= ``degree``; ``residue`` gives coordinates of its image
    in the graded piece of that degree.
    """

    degree: int
    representative: tuple
    residue: tuple


class Harmonics:
    """Filtration data for one arrangement, computed once and shared.

    Pass the arrangement's interior points when they are already known.
    Degree by degree, the evaluation rows of the binomial products (built
    from per-coordinate tables, see ``binomial_product_rows``) are added to
    one integer row lattice.  A degree whose canonical rows all have pivot 1
    gets saturation index 1 and its canonical rows as saturated rows, with
    no Smith form or kernel; any other degree falls back to
    ``saturation_index`` and ``saturation``.
    """

    def __init__(self, va: VectorArrangement, max_degree: int | None = None, points=None):
        self.va = va
        self.points = interior_lattice_points(va) if points is None else points
        n = len(self.points)
        self.point_count = n
        self.functions: list = []  # binomial products, graded-lex, all degrees
        self.eval_rows: list = []  # aligned evaluation vectors on the points
        self._degree_offsets = [0]  # functions of degree <= i are a prefix
        self.q_dims: list = []
        self.lattice_rows: list = []  # canonical HNF rows of the degree-<=i lattice
        self.saturation_indices: list = []
        self._saturated_rows: list = []
        self.truncated = False
        self._residue_maps: dict = {}
        if n == 0:
            self.top_degree = 0
            return
        lattice = IntRowLattice(n)
        blocks = binomial_product_rows(self.points.points, va.lattice_rank)
        for degree, block in enumerate(blocks):
            for f, row in block:
                self.functions.append(f)
                self.eval_rows.append(row)
                lattice.add(row)
            self._degree_offsets.append(len(self.functions))
            self.q_dims.append(lattice.rank)
            rows = lattice.canonical_rows()
            self.lattice_rows.append(rows)
            if all(row[c] == 1 for row, c in zip(rows, lattice.pivot_cols)):
                # unit pivots: Z^n / L is free, so L is its own saturation
                self.saturation_indices.append(1)
                self._saturated_rows.append(rows)
            else:
                basis_cols = Mat.from_rows(rows, cols=n).transpose()
                self.saturation_indices.append(saturation_index(basis_cols, n))
                sat = saturation(basis_cols)
                self._saturated_rows.append(tuple(tuple(x) for x in sat.transpose().row_list()))
            if lattice.rank == n:
                self.top_degree = degree
                break
            if max_degree is not None and degree >= max_degree:
                self.top_degree = degree
                self.truncated = True
                break

    # -- basic accessors -------------------------------------------------

    def functions_up_to(self, degree: int) -> list:
        if self.point_count == 0 or degree < 0:
            return []
        degree = min(degree, self.top_degree)
        return self.functions[: self._degree_offsets[degree + 1]]

    def eval_rows_up_to(self, degree: int) -> list:
        if self.point_count == 0 or degree < 0:
            return []
        degree = min(degree, self.top_degree)
        return self.eval_rows[: self._degree_offsets[degree + 1]]

    def basis_up_to(self, degree: int) -> tuple:
        """Canonical basis rows of the degree-<=i lattice; they span its Q-space."""
        if self.point_count == 0 or degree < 0:
            return ()
        return self.lattice_rows[min(degree, self.top_degree)]

    def q_dim(self, degree: int) -> int:
        """Rational dimension of the degree-<=i filtered piece (extended)."""
        if degree < 0:
            return 0
        if degree <= self.top_degree:
            return self.q_dims[degree] if self.q_dims else 0
        return self.point_count

    def saturated_rows(self, degree: int) -> tuple:
        """Canonical basis rows of the saturated degree-<=i lattice."""
        if self.point_count == 0 or degree < 0:
            return ()
        degree = min(degree, self.top_degree)
        return self._saturated_rows[degree]

    def gr_dims(self) -> tuple:
        out = []
        prev = 0
        for q in self.q_dims:
            out.append(q - prev)
            prev = q
        return tuple(out)

    def report(self) -> FiltrationReport:
        bases = tuple(
            hermite_normal_form(Mat.from_rows(rows, cols=self.point_count).transpose())
            for rows in self.lattice_rows
        )
        return FiltrationReport(
            point_count=self.point_count,
            q_dims=tuple(self.q_dims),
            gr_dims=self.gr_dims(),
            z_lattice_bases=bases,
            saturation_indices=tuple(self.saturation_indices),
            top_degree=self.top_degree,
            truncated=self.truncated,
        )

    # -- graded classes ---------------------------------------------------

    def eval_vector(self, cls: GradedClass) -> tuple:
        funcs = self.eval_rows_up_to(cls.degree)
        if len(cls.representative) != len(funcs):
            raise ValueError("representative length does not match basis")
        n = self.point_count
        out = [0] * n
        for c, row in zip(cls.representative, funcs):
            if c:
                for k in range(n):
                    out[k] += c * row[k]
        return tuple(out)

    def _residue_map(self, degree: int):
        """Linear map computing coordinates in R_i(Z)/R_{i-1}(Z)."""
        cached = self._residue_maps.get(degree)
        if cached is not None:
            return cached
        big = self.saturated_rows(degree)
        small = self.saturated_rows(degree - 1)
        k = len(big)
        # coordinates of the lower lattice in the basis of the upper one
        coords = []
        for row in small:
            c = solve_row_lattice(big, row)
            if c is None:
                raise NotIntegralError("filtration lattices are not nested")
            coords.append(c)
        if coords:
            divisors, U = smith_divisors(Mat.from_cols(coords, rows=k), transform=True)
            if any(d != 1 for d in divisors):
                raise NotIntegralError("lower filtered piece is not saturated in the upper one")
        else:
            U = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
        cut = len(small)

        def residue(eval_vec) -> tuple:
            c = solve_row_lattice(big, eval_vec)
            if c is None:
                raise NotIntegralError("vector does not lie in the expected lattice")
            return tuple(sum(U[i][j] * c[j] for j in range(k)) for i in range(cut, k))

        self._residue_maps[degree] = residue
        return residue

    def class_from_coeffs(self, degree: int, coeffs) -> GradedClass:
        coeffs = tuple(int(c) for c in coeffs)
        cls = GradedClass(degree=degree, representative=coeffs, residue=())
        vec = self.eval_vector(cls)
        residue = self._residue_map(degree)(vec)
        return GradedClass(degree=degree, representative=coeffs, residue=residue)

    def unit_class(self) -> GradedClass:
        return self.class_from_coeffs(0, (1,))

    def coordinate_class(self, j: int) -> GradedClass:
        """Degree-1 class of the j-th coordinate function."""
        if self.top_degree < 1:
            raise DegreeOverflowError("filtration has no degree-1 piece")
        funcs = self.functions_up_to(1)
        coeffs = [0] * len(funcs)
        target = tuple(1 if t == j else 0 for t in range(self.va.lattice_rank))
        for i, f in enumerate(funcs):
            if f.per_coordinate == target:
                coeffs[i] = 1
                return self.class_from_coeffs(1, coeffs)
        raise ValueError("coordinate function not found in basis")


def compute_filtration(va: VectorArrangement, max_degree: int | None = None) -> FiltrationReport:
    """Rational dimensions, integral lattice bases, and saturation indices."""
    return Harmonics(va, max_degree=max_degree).report()


def verify_saturation(report) -> bool:
    """True iff every degree's integral lattice equals its saturation.

    Accepts a ``FiltrationReport`` or a ``Harmonics``.
    """
    return all(ix == 1 for ix in report.saturation_indices)


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

    Lifts the class to its integral evaluation vector, applies the entrywise
    binomial coefficient, and re-expresses the result in the integral basis of
    degree m*i.  Internally verifies m! * result == cls^m modulo the lower
    filtered piece, over Q.
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
    eta = ctx.eval_vector(cls)
    w = tuple(binom_int(v, m) for v in eta)
    coeffs = solve_row_lattice(ctx.eval_rows_up_to(target), w)
    if coeffs is None:
        raise NotIntegralError("divided power does not lie in the integral span")
    # sanity: m! * binom(eta, m) - eta^m must lie in the lower filtered piece
    diff = [factorial(m) * a - b**m for a, b in zip(w, eta)]
    lower = ctx.eval_rows_up_to(target - 1)
    base = rank(Mat.from_rows(lower, cols=ctx.point_count)) if lower else 0
    joined = rank(Mat.from_rows(list(lower) + [diff], cols=ctx.point_count))
    if joined != base:
        raise NotIntegralError("divided power law failed over Q; internal bug")
    residue = ctx._residue_map(target)(w)
    return GradedClass(degree=target, representative=coeffs, residue=residue)


def divided_power_generation_check(ctx: Harmonics) -> bool:
    """Degree-1 classes generate everything under divided powers.

    For every degree i the lattice spanned by entrywise products
    prod_j C(z_j, m_j) (divided powers of the coordinate classes) must equal
    the saturated lattice of restricted degree-<=i integer-valued functions.
    """
    if ctx.point_count == 0:
        return True
    pts = ctx.points.points
    r = ctx.va.lattice_rank
    for i in range(ctx.top_degree + 1):
        gen = IntRowLattice(ctx.point_count)
        for f in binomial_products_up_to(r, i):
            gen.add(tuple(f.evaluate(p) for p in pts))
        if gen.canonical_rows() != ctx.saturated_rows(i):
            return False
    return True


def rees_data(ctx: Harmonics) -> tuple:
    """Per-degree saturated lattice bases with their grading weights."""
    out = []
    for i in range(ctx.top_degree + 1):
        rows = ctx.saturated_rows(i)
        hf = hermite_normal_form(Mat.from_rows(rows, cols=ctx.point_count).transpose())
        out.append((i, hf))
    return tuple(out)
