"""Integer-valued polynomial functions on Z^r, evaluated on point sets.

The products of coordinate binomial coefficients C(x_1, i_1)...C(x_r, i_r)
form a Z-basis of the integer-valued polynomials of bounded degree.  They
are enumerated degree by degree, in the descending-lexicographic order of
their exponents, so evaluation rows are stable.
"""

from __future__ import annotations

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


def binomial_product_rows(points, r: int):
    """Yield, degree by degree, an iterator over the evaluation rows on
    ``points`` of the binomial products of that degree, in the
    descending-lexicographic order of their exponents.

    Each row is kept with (j, e_j), where j is its exponent e's last nonzero
    coordinate (0 for e = 0).  Its children are the rows of e + u_k for k
    from j to r - 1, each in one entrywise step through
    C(x, i) = C(x, i-1) * (x - i + 1) / i, with i = e_j + 1 for k = j and
    i = 1 otherwise: the other factors of the product are unchanged, so the
    division is exact.  Every exponent of degree d > 0 is the child of
    exactly one of degree d - 1, and parents in descending-lex order give
    their children in that order.  Each row is built when its iterator
    reaches it, so a consumer that stops within a degree and asks for no
    next one builds no further row; asking for the next degree first builds
    the rest of this one, which it needs.  Only the previous degree's rows
    are kept.  The generator is endless; stop it when done.
    """
    pts = tuple(points)
    # shifted[j][i][k] == pts[k][j] - i + 1, one tuple per coordinate and degree
    shifted = [[None, tuple(p[j] for p in pts)] for j in range(r)]
    one = (1,) * len(pts)
    block = [(one, 0, 0)]
    yield iter((one,))
    while True:
        prev, block = block, []
        rows = _rows_of_degree(prev, block, shifted)
        yield rows
        for _ in rows:  # complete the block the next degree is built from
            pass
        for col in shifted:
            col.append(tuple(x - 1 for x in col[-1]))


def _rows_of_degree(prev, block, shifted):
    """Build, append to ``block`` with its (j, e_j) and yield each row of one
    degree in turn, from the rows of ``prev``, the degree below."""
    for parent, j, e in prev:
        for k in range(j, len(shifted)):
            i = e + 1 if k == j else 1
            row = map(mul, parent, shifted[k][i])
            row = tuple(row if i == 1 else map(floordiv, row, repeat(i)))
            block.append((row, k, i))
            yield row
