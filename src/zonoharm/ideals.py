"""Cocircuit ideal generators and truncated quotient dimensions.

Each cocircuit a contributes two generators: the shifted binomial
C(<a, x> + d_-(a) - 1, d(a) - 1), which vanishes identically on the interior
lattice points, and the pure power a^(d(a)-1), which cuts out the graded
quotient over Q.  The graded quotient dimensions are computed degree by
degree with exact linear algebra over the monomial basis; no symbolic ideal
machinery is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .arrangement import Cocircuit, VectorArrangement, enumerate_cocircuits
from .errors import SizeExceededError
from .funcspace import binom_int, exponents_of_degree
from .graphs import tutte_of_arrangement
from .harmonics import iz_hilbert_series
from .linalg import Mat, rank

SYM_DEGREE_DIM_CAP = 3000


@dataclass(frozen=True)
class IdealGenerator:
    """One generator attached to a cocircuit.

    ``binomial_shift`` kind: C(<covector, x> + shift, degree) with
    shift = d_-(a) - 1;  ``pure_power`` kind: <covector, x> ** degree, with
    degree = d(a) - 1 in both cases.
    """

    kind: str
    cocircuit: Cocircuit
    shift: int
    degree: int

    def describe(self) -> str:
        lin = "+".join(
            f"{c}*x{j + 1}" for j, c in enumerate(self.cocircuit.covector) if c
        ).replace("+-", "-")
        if self.kind == "binomial_shift":
            s = f"{self.shift:+d}" if self.shift else ""
            return f"C({lin}{s}, {self.degree})"
        return f"({lin})^{self.degree}"

    def evaluate(self, point) -> int:
        s = sum(c * x for c, x in zip(self.cocircuit.covector, point))
        if self.kind == "binomial_shift":
            return binom_int(s + self.shift, self.degree)
        return s**self.degree


def k_minus_generators(va: VectorArrangement, cocircuits=None) -> tuple:
    """Shifted-binomial generators, one per canonical cocircuit."""
    if cocircuits is None:
        cocircuits = enumerate_cocircuits(va)
    return tuple(
        IdealGenerator(
            kind="binomial_shift",
            cocircuit=c,
            shift=c.d_minus - 1,
            degree=c.degree - 1,
        )
        for c in cocircuits
    )


def pure_power_generators(va: VectorArrangement, cocircuits=None) -> tuple:
    if cocircuits is None:
        cocircuits = enumerate_cocircuits(va)
    return tuple(
        IdealGenerator(kind="pure_power", cocircuit=c, shift=0, degree=c.degree - 1)
        for c in cocircuits
    )


def verify_vanishing(generators, points) -> bool:
    """Every shifted-binomial generator is zero at every interior point."""
    pts = points.points if hasattr(points, "points") else points
    for g in generators:
        if g.kind != "binomial_shift":
            continue
        for p in pts:
            if g.evaluate(p) != 0:
                return False
    return True


def _power_expansion(covector, e: int, r: int) -> dict:
    """Monomial coefficients of (<covector, x>)^e as {exponents: coeff}."""
    out: dict = {}
    for exps in exponents_of_degree(r, e):
        coeff = factorial(e)
        for k in exps:
            coeff //= factorial(k)
        for a, k in zip(covector, exps):
            if k:
                coeff *= a**k
        if coeff:
            out[exps] = coeff
    return out


def _expansions(cocircuits, r: int) -> list:
    """(e, expansion of a^e) for each cocircuit a, with e = d(a) - 1."""
    return [(c.degree - 1, _power_expansion(c.covector, c.degree - 1, r)) for c in cocircuits]


def _quotient_dim_at_degree(r: int, expansions, degree: int) -> int:
    monos = list(exponents_of_degree(r, degree))
    dim = len(monos)
    if dim > SYM_DEGREE_DIM_CAP:
        raise SizeExceededError(
            f"degree-{degree} symmetric power has dimension {dim} > {SYM_DEGREE_DIM_CAP}"
        )
    if dim == 0:
        return 0
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for e, expansion in expansions:
        if e > degree:
            continue
        for shift_exps in exponents_of_degree(r, degree - e):
            row = [0] * dim
            for exps, coeff in expansion.items():
                total = tuple(a + b for a, b in zip(exps, shift_exps))
                row[index[total]] += coeff
            rows.append(row)
    if not rows:
        return dim
    return dim - rank(Mat.from_rows(rows, cols=dim))


def _quotient_dims(r: int, expansions, bound: int) -> tuple:
    return tuple(_quotient_dim_at_degree(r, expansions, d) for d in range(bound + 1))


def power_ideal_quotient_dims(
    va: VectorArrangement, bound: int | None = None, cocircuits=None
) -> tuple:
    """Graded dimensions of Sym modulo the pure cocircuit powers, up to a bound.

    The default bound is one past the length suggested by the Tutte series, so
    the expected trailing zero is verified rather than assumed.  Pass the
    cocircuits when they are already known.  Without a bound, only the
    cocircuits enumerated here stand as the certificate that
    ``tutte_of_arrangement`` takes, never the ones passed in.
    """
    if bound is None:
        certified = enumerate_cocircuits(va)
        bound = len(iz_hilbert_series(va, tutte_of_arrangement(va, certified)))
        if cocircuits is None:
            cocircuits = certified
    elif cocircuits is None:
        cocircuits = enumerate_cocircuits(va)
    r = va.lattice_rank
    return _quotient_dims(r, _expansions(cocircuits, r), bound)


def redundant_generators(va: VectorArrangement, bound: int | None = None) -> tuple:
    """Indices of cocircuit generators implied by the others, degree by degree.

    Generator g is implied when dropping it leaves every truncated-degree
    quotient dimension unchanged.  No minimality claim: the remaining set may
    itself contain further implications.  Each cocircuit power is expanded
    once and shared by every leave-one-out comparison.
    """
    r = va.lattice_rank
    cocircuits = enumerate_cocircuits(va)
    expansions = _expansions(cocircuits, r)
    if bound is None:
        bound = len(iz_hilbert_series(va, tutte_of_arrangement(va, cocircuits)))
    full = _quotient_dims(r, expansions, bound)
    return tuple(
        i
        for i in range(len(expansions))
        if _quotient_dims(r, expansions[:i] + expansions[i + 1 :], bound) == full
    )
