"""Bases of polynomial and integer-valued polynomial functions on Z^r.

Two graded families are provided: monomials x^e (a Q-basis per degree) and
products of coordinate binomial coefficients C(x_1, i_1)...C(x_r, i_r), which
form a Z-basis of the integer-valued polynomials of bounded degree.  Both are
enumerated in graded-lexicographic order so evaluation matrices are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import factorial
from operator import mul

from .errors import EmptyPointSetError
from .linalg import Mat


def binom_int(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for arbitrary integer n and k >= 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


@dataclass(frozen=True)
class Monomial:
    exponents: tuple

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def evaluate(self, point) -> int:
        v = 1
        for x, e in zip(point, self.exponents):
            if e:
                v *= x**e
        return v

    def __str__(self):
        parts = [f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}" for j, e in enumerate(self.exponents) if e]
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class BinomialProduct:
    """The function prod_j C(x_j, i_j); integer-valued on all of Z^r."""

    per_coordinate: tuple

    @property
    def degree(self) -> int:
        return sum(self.per_coordinate)

    def evaluate(self, point) -> int:
        v = 1
        for x, i in zip(point, self.per_coordinate):
            if i:
                v *= binom_int(x, i)
                if v == 0:
                    return 0
        return v

    def __str__(self):
        parts = [f"C(x{j + 1},{i})" for j, i in enumerate(self.per_coordinate) if i]
        return "*".join(parts) if parts else "1"


def exponents_of_degree(r: int, d: int):
    """Exponent tuples of total degree exactly d in r variables, descending-lex.

    These are the degree-d block of ``graded_exponents_up_to``, in its order.
    """
    if r == 0:
        if d == 0:
            yield ()
        return
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
    yield from out


def binomial_product_rows(points, r: int):
    """Yield, degree by degree, the binomial products of that degree with their
    evaluation rows on ``points``: a list of (BinomialProduct, row) pairs in the
    order of ``exponents_of_degree``.

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
            block.append((BinomialProduct(exps), row))
        yield block
        degree += 1


def _entrywise_product(a: tuple, b: tuple) -> tuple:
    return tuple(map(mul, a, b))


def graded_exponents_up_to(r: int, d: int) -> list:
    """All exponent tuples of total degree <= d in graded-lex order."""
    out = []
    for deg in range(d + 1):
        out.extend(exponents_of_degree(r, deg))
    return out


def monomials_up_to(r: int, d: int) -> list:
    return [Monomial(e) for e in graded_exponents_up_to(r, d)]


def binomial_products_up_to(r: int, d: int) -> list:
    return [BinomialProduct(e) for e in graded_exponents_up_to(r, d)]


@dataclass(frozen=True)
class EvaluationMatrix:
    """Exact values of a function basis on a finite point set (rows = functions)."""

    functions: tuple
    points: tuple
    values: Mat


def evaluate(functions, points) -> EvaluationMatrix:
    """Evaluate a basis of functions on a nonempty point set, exactly."""
    pts = tuple(points.points) if hasattr(points, "points") else tuple(tuple(p) for p in points)
    if not pts:
        raise EmptyPointSetError("cannot evaluate on an empty point set")
    funcs = tuple(functions)
    rows = [[f.evaluate(p) for p in pts] for f in funcs]
    return EvaluationMatrix(functions=funcs, points=pts, values=Mat.from_rows(rows, cols=len(pts)))
