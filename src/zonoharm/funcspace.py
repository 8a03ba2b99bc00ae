"""Integer-valued polynomial functions on Z^r, evaluated on point sets.

The products of coordinate binomial coefficients C(x_1, i_1)...C(x_r, i_r)
form a Z-basis of the integer-valued polynomials of bounded degree.  They
are enumerated degree by degree, in the descending-lexicographic order of
their exponents, so evaluation rows are stable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
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
    out = []
    for bars in combinations(range(d + r - 1), r - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(d + r - 2 - prev)
        out.append(tuple(comp))
    out.sort(key=lambda e: tuple(-x for x in e))
    return tuple(out)


@lru_cache(maxsize=256)
def _parent_steps(r: int, d: int) -> tuple:
    """(k, j, e_j) for each exponent e of ``exponents_of_degree(r, d)``,
    d > 0: j is e's last nonzero coordinate and k the position of e - u_j
    among the exponents of degree d - 1.  Tabulated once per (r, d)."""
    position = {e: k for k, e in enumerate(exponents_of_degree(r, d - 1))}
    steps = []
    for e in exponents_of_degree(r, d):
        j = max(c for c in range(r) if e[c])
        steps.append((position[e[:j] + (e[j] - 1,) + e[j + 1 :]], j, e[j]))
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
