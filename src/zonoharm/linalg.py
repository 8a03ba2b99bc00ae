"""Exact integer linear algebra on small dense matrices.

All values are immutable and all functions are pure.  Determinants and
ranks are computed fraction-free (Bareiss).  Every lattice computation runs
on one xgcd echelon, ``IntRowLattice``, whose canonical rows are the
row-style Hermite form: integer kernels are read off the echelon form of
[A^T | I], and a saturation is the kernel of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod


@dataclass(frozen=True)
class Mat:
    """Immutable row-major matrix with int entries."""

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.data) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Mat":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        return Mat(len(rows), cols, tuple(chain.from_iterable(rows)))

    @staticmethod
    def from_cols(cols, rows: int | None = None) -> "Mat":
        return Mat.from_rows(cols, rows).transpose()

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.data[j :: self.cols] if self.cols else ()

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def col_list(self) -> list:
        return [list(self.col(j)) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(chain.from_iterable(map(self.col, range(self.cols)))))

    def matvec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in (self.row(i) for i in range(self.rows)))


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _int_rows(m) -> list:
    """Rows of m as fresh lists."""
    if isinstance(m, Mat):
        return m.row_list()
    return [list(r) for r in m]


def det(m) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    rows = _int_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def rank(m) -> int:
    """Exact rank over the rationals, by fraction-free Gaussian elimination (Bareiss)."""
    rows = _int_rows(m)
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for j in range(c, ncols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        r += 1
        if r == len(rows):
            break
    return r


def in_row_lattice(echelon_rows, vec) -> bool:
    """True iff the integer vector lies in the row lattice of ``echelon_rows``.

    The rows must be in echelon form: each row's first nonzero entry lies
    strictly to the right of the previous row's, as in
    ``IntRowLattice.canonical_rows``, ``integer_kernel`` or ``saturate``.
    """
    v = list(vec)
    for row in echelon_rows:
        c = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


class IntRowLattice:
    """Grow-only integer row lattice kept in echelon form.

    Rows are inserted with xgcd combinations; ``rank`` equals the rational
    dimension of the span, and ``canonical_rows`` returns the row-style HNF.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.rows: list = []  # sorted by pivot column
        self.pivot_cols: list = []
        for r in rows:
            self.add(r)

    def add(self, vec) -> None:
        v = [int(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        for idx in range(len(self.rows) + 1):
            c = next((j for j in range(self.ncols) if v[j]), None)
            if c is None:
                return
            if idx == len(self.rows) or self.pivot_cols[idx] > c:
                if v[c] < 0:
                    v = [-x for x in v]
                self.rows.insert(idx, v)
                self.pivot_cols.insert(idx, c)
                return
            if self.pivot_cols[idx] < c:
                continue
            row = self.rows[idx]
            g, x, y = xgcd(row[c], v[c])
            a_, b_ = row[c] // g, v[c] // g
            new_row = [x * p + y * q for p, q in zip(row, v)]
            v = [-b_ * p + a_ * q for p, q in zip(row, v)]
            self.rows[idx] = new_row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def canonical_rows(self) -> tuple:
        work = [list(r) for r in self.rows]
        for k in range(len(work)):
            c = self.pivot_cols[k]
            p = work[k][c]
            for i in range(k):
                q = work[i][c] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[k])]
        return tuple(tuple(r) for r in work)


def integer_kernel(rows, ncols: int) -> tuple:
    """Canonical basis rows of the integer kernel {x in Z^ncols : rows x = 0}.

    The echelon rows of [rows^T | I] whose pivot lies in the identity block
    vanish on the left block, so their tails are kernel vectors; they form a
    basis of the kernel lattice (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4).  The tails are in row-style Hermite form, so a
    one-dimensional kernel is a primitive vector with positive first nonzero
    entry.
    """
    rows = [tuple(r) for r in rows]
    k = len(rows)
    lattice = IntRowLattice(k + ncols)
    for j in range(ncols):
        lattice.add([r[j] for r in rows] + [int(i == j) for i in range(ncols)])
    canon = lattice.canonical_rows()
    return tuple(row[k:] for row, c in zip(canon, lattice.pivot_cols) if c >= k)


def saturate(rows, ncols: int):
    """Saturation of the row lattice L of ``rows`` in Z^ncols, with its index.

    Returns (sat_rows, index): the canonical rows of the integer points of
    L's Q-span, which is the integer kernel of L's integer kernel, and the
    index of L in it.  Echelon bases of one Q-space share their pivot
    columns, so on those coordinates the covolumes of L and of its
    saturation are the products of their pivots; the index is their
    quotient, and it is 1 iff L is saturated.
    """
    lattice = IntRowLattice(ncols, rows)
    sat = integer_kernel(integer_kernel(lattice.rows, ncols), ncols)
    pivots = prod(r[c] for r, c in zip(lattice.rows, lattice.pivot_cols))
    return sat, pivots // prod(next(x for x in r if x) for r in sat)
