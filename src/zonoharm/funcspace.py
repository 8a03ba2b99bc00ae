"""Integer-valued polynomial functions on Z^r, evaluated on point sets.

The products of coordinate binomial coefficients C(x_1, i_1)...C(x_r, i_r)
form a Z-basis of the integer-valued polynomials of bounded degree.  They
are enumerated degree by degree, in the descending-lexicographic order of
their exponents, so evaluation rows are stable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import floordiv, mul


def binom_int(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for arbitrary integer n and k >= 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


@lru_cache(maxsize=256)
def exponents_of_degree(r: int, d: int) -> tuple:
    """Exponent tuples of total degree exactly d in r variables, descending-lex.

    Tabulated once per (r, d); the tuple is shared by every caller."""
    if r == 0:
        return ((),) if d == 0 else ()
    return tuple((k, *rest) for k in range(d, -1, -1) for rest in exponents_of_degree(r - 1, d - k))


@lru_cache(maxsize=256)
def _parent_steps(r: int, d: int) -> tuple:
    """(k, j, e_j) for each exponent e of ``exponents_of_degree(r, d)``,
    d > 0, in order: j is e's last nonzero coordinate and k the position of
    e - u_j among the exponents of degree d - 1.  Tabulated once per (r, d).

    Each exponent p of degree d - 1 is listed with its children p + u_j, for
    j from p's last nonzero coordinate (0 for p = 0) to r - 1.  Parents in
    descending-lex order give their children in that order, so no sort is
    needed."""
    steps = []
    for k, p in enumerate(exponents_of_degree(r, d - 1)):
        last = max((c for c in range(r) if p[c]), default=0)
        steps.extend((k, j, p[j] + 1) for j in range(last, r))
    return tuple(steps)


def binomial_product_rows(points, r: int):
    """Yield, degree by degree, an iterator over the evaluation rows on
    ``points`` of the binomial products of that degree, in the order of
    ``exponents_of_degree``.

    The row of an exponent e of degree d > 0 comes in one entrywise step from
    the row of e - u_j, where j is e's last nonzero coordinate, through
    C(x, i) = C(x, i-1) * (x - i + 1) / i with i = e_j: the other factors
    of the product are unchanged, so the division is exact.  Each row is
    built when its iterator reaches it, so a consumer that stops within a
    degree and asks for no next one builds no further row; asking for the
    next degree first builds the rest of this one, which it needs.  Only the
    previous degree's rows are kept.  The generator is endless; stop it when
    done.
    """
    pts = tuple(points)
    # shifted[j][i][k] == pts[k][j] - i + 1, one tuple per coordinate and degree
    shifted = [[None, tuple(p[j] for p in pts)] for j in range(r)]
    block = [(1,) * len(pts)]
    yield iter(block)
    degree = 1
    while True:
        if degree > 1:
            for col in shifted:
                col.append(tuple(x - 1 for x in col[-1]))
        prev, block = block, []
        rows = _rows_of_degree(prev, block, shifted, _parent_steps(r, degree))
        yield rows
        for _ in rows:  # complete the block the next degree is built from
            pass
        degree += 1


def _rows_of_degree(prev, block, shifted, steps):
    """Build, append to ``block`` and yield each row of one degree in turn."""
    for k, j, i in steps:
        row = map(mul, prev[k], shifted[j][i])
        row = tuple(row if i == 1 else map(floordiv, row, repeat(i)))
        block.append(row)
        yield row
