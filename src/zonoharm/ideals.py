"""Cocircuit ideal generators and truncated quotient dimensions.

Each cocircuit a contributes two generators: the shifted binomial
C(<a, x> + d_-(a) - 1, d(a) - 1), which vanishes identically on the interior
lattice points, and the pure power a^(d(a)-1), which cuts out the graded
quotient over Q.  The graded quotient dimensions are computed degree by
degree over the monomial basis, with no symbolic ideal machinery.

Each degree's Macaulay matrix is ranked modulo the prime P, without lifting,
and certified by orbit harmonics: where the shifted binomials vanish on the
points Z, their top-degree parts, the pure powers up to units, lie in
gr I(Z), so dim (Sym/I)_d >= grDims[d] of the filtration on Z.  A rank mod P
can only overstate dim (Sym/I)_d, so a mod-P dimension equal to grDims[d] is
exact.  Every other degree is ranked by Bareiss.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .arrangement import Cocircuit, VectorArrangement, enumerate_cocircuits, interior_lattice_points
from .errors import SizeExceededError
from .funcspace import binom_int, exponents_of_degree
from .graphs import tutte_of_arrangement
from .harmonics import Harmonics, iz_hilbert_series
from .linalg import rank

SYM_DEGREE_DIM_CAP = 3000
P = (1 << 61) - 1  # prime modulus of the certified rank


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


def _macaulay_rows(r: int, expansions, degree: int) -> tuple:
    """(dim Sym_d, rows): every monomial multiple of degree d of each power,
    over the monomial basis of Sym_d."""
    monos = list(exponents_of_degree(r, degree))
    dim = len(monos)
    if dim > SYM_DEGREE_DIM_CAP:
        raise SizeExceededError(
            f"degree-{degree} symmetric power has dimension {dim} > {SYM_DEGREE_DIM_CAP}"
        )
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
    return dim, rows


def _rank_mod_p(rows: list) -> int:
    """Rank modulo P of nonempty integer rows, by elimination without lifting;
    each pivot row has the fewest nonzeros, for the least fill-in."""
    work = [[x % P for x in r] for r in rows]
    rho = 0
    for c in range(len(work[0])):
        cands = [i for i, w in enumerate(work) if w[c]]
        if not cands:
            continue
        row_p = work.pop(max(cands, key=lambda i: work[i].count(0)))
        inv = pow(row_p[c], -1, P)
        tail = [x * inv % P for x in row_p[c:]]
        for w in work:
            f = w[c]
            if f:
                w[c:] = [(a - f * b) % P for a, b in zip(w[c:], tail)]
        rho += 1
        if not work:
            break
    return rho


def _quotient_dim(r: int, expansions, degree: int, floor: int | None) -> int:
    """dim (Sym/I)_d over Q: mod P where that meets the lower bound ``floor``, else by Bareiss."""
    dim, rows = _macaulay_rows(r, expansions, degree)
    if not rows:
        return dim
    if floor is not None and dim - _rank_mod_p(rows) == floor:
        return floor
    return dim - rank(rows)


def quotient_dims(va: VectorArrangement, cocircuits, bound: int, harmonics, vanishing) -> tuple:
    """Graded dimensions of Sym modulo the pure cocircuit powers, degrees 0..bound.

    ``harmonics`` is the untruncated filtration on the points, and
    ``vanishing`` says whether the shifted binomials vanish on them; if so,
    its grDims, padded with zeros, bound the dimensions from below.
    """
    r = va.lattice_rank
    gr = harmonics.gr_dims()
    floors = gr + (0,) * (bound + 1 - len(gr)) if vanishing else (None,) * (bound + 1)
    expansions = _expansions(cocircuits, r)
    return tuple(_quotient_dim(r, expansions, d, floors[d]) for d in range(bound + 1))


def _certificate(va: VectorArrangement, cocircuits) -> tuple:
    """The filtration on the interior points and the vanishing verdict there."""
    points = interior_lattice_points(va, cocircuits)
    vanishing = verify_vanishing(k_minus_generators(va, cocircuits), points)
    return Harmonics(va, points=points), vanishing


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
    return quotient_dims(va, cocircuits, bound, *_certificate(va, cocircuits))


def redundant_generators(va: VectorArrangement, bound: int | None = None) -> tuple:
    """Indices of cocircuit generators implied by the others, up to a degree bound.

    Generator g of degree e is implied iff dropping it leaves the degree-e
    quotient dimension unchanged: then g lies in the ideal of the others, so
    the two ideals agree in every degree.  A generator of degree above the
    bound counts as implied.  Dropping g can only enlarge the quotient, so a
    mod-P dimension equal to the full one proves g implied; otherwise one
    Bareiss rank decides.  No minimality claim: the remaining set may itself
    contain further implications.
    """
    cocircuits = enumerate_cocircuits(va)
    if bound is None:
        bound = len(iz_hilbert_series(va, tutte_of_arrangement(va, cocircuits)))
    full = quotient_dims(va, cocircuits, bound, *_certificate(va, cocircuits))
    r = va.lattice_rank
    exps = _expansions(cocircuits, r)
    return tuple(
        i
        for i, (e, _) in enumerate(exps)
        if e > bound or _quotient_dim(r, exps[:i] + exps[i + 1 :], e, full[e]) == full[e]
    )
