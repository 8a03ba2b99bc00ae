"""Exact integer linear algebra on small dense matrices.

All values are immutable and all functions are pure.  ``Mat`` is a plain
class, immutable by convention: nothing reassigns its fields.  Determinants
and ranks are computed fraction-free (Bareiss).  Every lattice computation
runs on one integer echelon, ``IntRowLattice``: an insert subtracts a
multiple of each stored row whose pivot divides the entry and takes an xgcd
step at any other pivot.  Membership is decided on any echelon basis, in
batches, and ``hermite_rows`` reduces one to the canonical rows, the
row-style Hermite form, only where they are read: integer kernels are read
off the canonical form of [A^T | I], and a saturation is the kernel of the
kernel.
"""

from __future__ import annotations

from itertools import chain
from math import prod


class Mat:
    """Immutable row-major matrix with int entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        if len(data) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    def _key(self) -> tuple:
        return (self.rows, self.cols, self.data)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Mat(rows={self.rows!r}, cols={self.cols!r}, data={self.data!r})"

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


def in_row_lattice(echelon_rows, pivot_cols, vecs) -> bool:
    """True iff every integer vector of ``vecs`` lies in the row lattice of ``echelon_rows``.

    The rows must be in echelon form, row k's first nonzero entry at column
    ``pivot_cols[k]``, strictly increasing, as in ``IntRowLattice`` or the
    canonical rows of ``hermite_rows``, ``integer_kernel`` or ``saturate``.
    Any echelon basis of the lattice gives the same answer.
    """
    basis = tuple(zip(echelon_rows, pivot_cols))
    for vec in vecs:
        v = list(vec)
        for row, c in basis:
            q, rem = divmod(v[c], row[c])
            if rem:
                return False
            if q:
                v[c:] = [a - q * b for a, b in zip(v[c:], row[c:])]
        if any(v):
            return False
    return True


def hermite_rows(echelon_rows, pivot_cols) -> tuple:
    """The canonical rows (row-style Hermite form) of an echelon basis with
    positive pivots: each entry above a pivot is reduced into [0, pivot).
    They depend only on the lattice, not on the echelon basis given."""
    work = [list(r) for r in echelon_rows]
    for k, c in enumerate(pivot_cols):
        row = work[k]
        p = row[c]
        for i in range(k):
            q = work[i][c] // p
            if q:
                work[i][c:] = [a - q * b for a, b in zip(work[i][c:], row[c:])]
    return tuple(map(tuple, work))


class IntRowLattice:
    """Grow-only integer row lattice kept in echelon form with positive pivots.

    ``rank`` equals the rational dimension of the span, and ``canonical_rows``
    returns the row-style HNF.  Stored rows are replaced, never mutated, so a
    tuple of ``rows`` taken between inserts is a lasting snapshot.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.rows: list = []  # sorted by pivot column
        self.pivot_cols: list = []
        for r in rows:
            self.add(r)

    def add(self, vec) -> None:
        """Insert ``vec``.  The pivot scan resumes after each cleared column;
        a stored pivot that divides the entry is subtracted with the row left
        as it is, and any other pivot takes an xgcd step that replaces it."""
        v = list(map(int, vec))
        n = self.ncols
        if len(v) != n:
            raise ValueError("length mismatch")
        rows, pivots = self.rows, self.pivot_cols
        idx = 0
        c = -1
        while True:
            c = next((j for j in range(c + 1, n) if v[j]), None)
            if c is None:
                return
            while idx < len(pivots) and pivots[idx] < c:
                idx += 1
            if idx == len(pivots) or pivots[idx] > c:
                if v[c] < 0:
                    v = [-x for x in v]
                rows.insert(idx, v)
                pivots.insert(idx, c)
                return
            row = rows[idx]
            p, t = row[c], v[c]
            q, rem = divmod(t, p)
            if rem:
                g, x, y = xgcd(p, t)
                a_, b_ = p // g, t // g
                rows[idx] = [x * s + y * u for s, u in zip(row, v)]
                v[c:] = [a_ * u - b_ * s for s, u in zip(row[c:], v[c:])]
            else:
                v[c:] = [u - q * s for s, u in zip(row[c:], v[c:])]
            idx += 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def canonical_rows(self) -> tuple:
        return hermite_rows(self.rows, self.pivot_cols)


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
