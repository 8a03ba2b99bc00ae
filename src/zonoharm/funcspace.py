"""Integer-valued polynomial functions on Z^r, evaluated on point sets.

The products of coordinate binomial coefficients C(x_1, i_1)...C(x_r, i_r)
form a Z-basis of the integer-valued polynomials of bounded degree.  They
are enumerated degree by degree, in the descending-lexicographic order of
their exponents, so evaluation rows are stable.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import factorial
from operator import mul


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


def binomial_product_rows(points, r: int):
    """Yield, degree by degree, the evaluation rows on ``points`` of the
    binomial products of that degree, in the order of ``exponents_of_degree``.

    Each coordinate keeps a table of rows C(p_j, i) over the points, extended
    by one degree per step through C(x, i) = C(x, i-1) * (x - i + 1) / i (an
    exact division for every integer x), so a row is the entrywise product of
    at most r table rows.  The generator is endless; stop it when done.
    """
    pts = tuple(points)
    ones = (1,) * len(pts)
    tables = [[ones] for _ in range(r)]  # tables[j][i][k] == binom_int(pts[k][j], i)
    degree = 0
    while True:
        if degree:
            for j, table in enumerate(tables):
                table.append(tuple(v * (p[j] - degree + 1) // degree for v, p in zip(table[-1], pts)))
        block = []
        for exps in exponents_of_degree(r, degree):
            factors = [tables[j][i] for j, i in enumerate(exps) if i]
            row = reduce(_entrywise_product, factors) if factors else ones
            block.append(row)
        yield block
        degree += 1


def _entrywise_product(a: tuple, b: tuple) -> tuple:
    return tuple(map(mul, a, b))
