"""Exact integer linear algebra on small dense matrices.

All values are immutable and all functions are pure.  ``Mat`` is a plain
class, immutable by convention: nothing reassigns its fields.  Only the
determinant is computed by fraction-free elimination (Bareiss); every rank
and every lattice computation runs on one kernel step and one integer
echelon, and ``rank`` is the number of echelon rows.  ``kernel_step`` cuts a
lattice basis down to the vectors that pair to zero with one more row, by
unimodular xgcd column steps; an integer kernel is the identity cut by each
row in turn, and the cocircuit scan cuts the kernels of shared column
prefixes.  ``IntRowLattice`` is the echelon: an insert subtracts a multiple
of each stored row whose pivot divides the entry and takes an xgcd step at
any other pivot.  An echelon basis with positive pivots is the one form of
a lattice here: integer kernels and saturations are returned as one,
membership is decided on any one, in batches, and a saturation is the
kernel of the kernel.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import mul


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

    def col_list(self) -> list:
        return [list(self.col(j)) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(chain.from_iterable(map(self.col, range(self.cols)))))


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


def det(m) -> int:
    """Determinant of a square integer matrix, given as rows (Bareiss, fraction-free)."""
    rows = [list(r) for r in m]
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
    """Exact rank over the rationals of a ``Mat`` or a list of integer rows:
    the number of rows of their ``IntRowLattice`` echelon."""
    if isinstance(m, Mat):
        return IntRowLattice(m.cols, map(m.row, range(m.rows))).rank
    return IntRowLattice(len(m[0]), m).rank if m else 0


def in_row_lattice(echelon_rows, pivot_cols, vecs) -> bool:
    """True iff every integer vector of ``vecs`` lies in the row lattice of ``echelon_rows``.

    The rows must be in echelon form, row k's first nonzero entry at column
    ``pivot_cols[k]``, strictly increasing, as in ``IntRowLattice``,
    ``integer_kernel`` or ``saturate``.  Any echelon basis of the lattice
    gives the same answer.
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


class IntRowLattice:
    """Grow-only integer row lattice kept in echelon form with positive pivots.

    ``rank`` equals the rational dimension of the span; the pivot columns and
    pivots depend only on the lattice.  Stored rows are replaced, never
    mutated, so a tuple of ``rows`` taken between inserts is a lasting snapshot.
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


def kernel_step(basis, vec):
    """The vectors of the lattice spanned by ``basis`` that pair to 0 with ``vec``.

    Unimodular xgcd column steps gather every nonzero pairing onto one
    basis vector, which is then dropped; the others, in their order, are a
    basis of the sublattice.  Returns None when every basis vector already
    pairs to 0, so the sublattice is the whole lattice.
    """
    out = list(basis)
    piv = None
    for i, b in enumerate(basis):
        t = sum(map(mul, b, vec))
        if not t:
            continue
        if piv is None:
            piv, pb, p = i, b, t
            continue
        q, rem = divmod(t, p)
        if rem:
            g, x, y = xgcd(p, t)
            a_, b_ = p // g, t // g
            out[i] = [a_ * u - b_ * s for s, u in zip(pb, b)]
            pb, p = [x * s + y * u for s, u in zip(pb, b)], g
        else:
            out[i] = [u - q * s for s, u in zip(pb, b)]
    if piv is None:
        return None
    del out[piv]
    return out


def integer_kernel(rows, ncols: int) -> tuple:
    """The integer kernel {x in Z^ncols : rows x = 0}, as echelon rows with positive pivots.

    The identity basis of Z^ncols is cut by ``kernel_step`` once per row;
    each step is unimodular on the lattice it cuts, so the result is a basis
    of the kernel lattice, which ``IntRowLattice`` puts in echelon form.  A
    one-dimensional kernel is a primitive vector with positive first nonzero
    entry.
    """
    basis = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row in rows:
        cut = kernel_step(basis, row)
        if cut is not None:
            basis = cut
    return tuple(map(tuple, IntRowLattice(ncols, basis).rows))


def saturate(rows, ncols: int):
    """Saturation of the row lattice L of ``rows`` in Z^ncols, with its index.

    Returns (sat_rows, index): an echelon basis, with positive pivots, of the
    integer points of L's Q-span, which is the integer kernel of L's integer
    kernel, and the index of L in it.  Echelon bases of one Q-space share
    their pivot columns (``sat_rows`` has L's), so on those coordinates the
    covolumes of L and of its saturation are the products of their pivots;
    the index is their quotient, and it is 1 iff L is saturated.
    """
    lattice = IntRowLattice(ncols, rows)
    sat = integer_kernel(integer_kernel(lattice.rows, ncols), ncols)
    pivots = prod(r[c] for r, c in zip(lattice.rows, lattice.pivot_cols))
    return sat, pivots // prod(next(x for x in r if x) for r in sat)
