"""Cocircuit ideal generators and truncated quotient dimensions.

Each cocircuit a contributes two generators: the shifted binomial
C(<a, x> + d_-(a) - 1, d(a) - 1), which vanishes identically on the interior
lattice points, and the pure power a^(d(a)-1), which cuts out the graded
quotient over Q.  The graded quotient dimensions are computed degree by
degree, with no symbolic ideal machinery.

The quotients V_d = (Sym/I)_d are built modulo the prime P by successive
quotients: V_d is V_{d-1}^r modulo the Koszul images of V_{d-2} and the
degree-d generators, which is exact over any field because the Koszul
complex of the variables is.  Every matrix has at most r * dim V_{d-1}
columns.  Each dimension is certified by orbit harmonics: where the shifted
binomials vanish on the points Z, their top-degree parts, the pure powers up
to units, lie in gr I(Z), so dim (Sym/I)_d >= grDims[d] of the filtration on
Z.  A dimension mod P can only overstate dim (Sym/I)_d, so one equal to
grDims[d] is exact.  Every other degree takes the exact rank of its
Macaulay matrix, whose rows are the monomial multiples of the generators
and whose columns are the monomials of Sym_d, on the integer echelon of
``linalg``; ``SYM_DEGREE_DIM_CAP`` limits only that exact fallback.
"""

from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple

from .arrangement import Cocircuit, VectorArrangement
from .errors import SizeExceededError
from .funcspace import binom_int, exponents_of_degree
from .linalg import rank

SYM_DEGREE_DIM_CAP = 3000
P = (1 << 61) - 1  # prime field of the successive quotients


class IdealGenerator(NamedTuple):
    """The shifted binomial C(<covector, x> + shift, degree) of a cocircuit a,
    with shift = d_-(a) - 1 and degree = d(a) - 1."""

    cocircuit: Cocircuit
    shift: int
    degree: int

    def evaluate(self, point) -> int:
        s = sum(c * x for c, x in zip(self.cocircuit.covector, point))
        return binom_int(s + self.shift, self.degree)


def k_minus_generators(cocircuits) -> tuple:
    """Shifted-binomial generators, one per canonical cocircuit."""
    return tuple(IdealGenerator(c, c.d_minus - 1, c.degree - 1) for c in cocircuits)


def verify_vanishing(generators, points) -> bool:
    """Every shifted-binomial generator is zero at every point of ``points``,
    a tuple of points (the interior points)."""
    return not any(g.evaluate(p) for g in generators for p in points)


def _power_expansion(covector, e: int, r: int) -> dict:
    """Monomial coefficients of (<covector, x>)^e as {exponents: coeff}.

    Only monomials in the covector's support have nonzero coefficients, so
    the exponents are enumerated over the support and placed in r-tuples;
    the placement keeps their descending-lexicographic order."""
    support = [j for j in range(r) if covector[j]]
    out: dict = {}
    for sub in exponents_of_degree(len(support), e):
        exps = [0] * r
        coeff = factorial(e)
        for j, k in zip(support, sub):
            exps[j] = k
            coeff = coeff // factorial(k) * covector[j] ** k
        out[tuple(exps)] = coeff
    return out


def _expansions(cocircuits, r: int) -> list:
    """(e, expansion of a^e) for each cocircuit a, with e = d(a) - 1."""
    return [(c.degree - 1, _power_expansion(c.covector, c.degree - 1, r)) for c in cocircuits]


def _macaulay_rows(r: int, expansions, degree: int) -> tuple:
    """(dim Sym_d, rows): every monomial multiple of degree d of each power,
    over the monomial basis of Sym_d.  The dimension is capped before any
    monomial is listed."""
    dim = comb(degree + r - 1, r - 1) if r else int(degree == 0)
    if dim > SYM_DEGREE_DIM_CAP:
        raise SizeExceededError(
            f"degree-{degree} symmetric power has dimension {dim} > {SYM_DEGREE_DIM_CAP}"
        )
    index = {e: i for i, e in enumerate(exponents_of_degree(r, degree))}
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


def _exact_dim(r: int, expansions, degree: int) -> int:
    """dim (Sym/I)_d over Q, by the exact rank of the Macaulay matrix on the
    integer echelon (``linalg.rank``)."""
    dim, rows = _macaulay_rows(r, expansions, degree)
    return dim - rank(rows) if rows else dim


def _reduce(row: dict, pivots: dict) -> dict:
    """A sparse row mod P minus its parts along the reduced echelon ``pivots``
    ({column: row with 1 there and 0 at every other pivot column})."""
    out = dict(row)
    for c, f in row.items():
        if f and c in pivots:
            for k, v in pivots[c].items():
                out[k] = (out.get(k, 0) - f * v) % P
    return {k: v for k, v in out.items() if v}


def _insert(row: dict, pivots: dict) -> None:
    """Add a sparse row to the reduced echelon ``pivots``, keeping it reduced."""
    row = _reduce(row, pivots)
    if not row:
        return
    p = min(row)
    inv = pow(row[p], -1, P)
    row = {k: v * inv % P for k, v in row.items()}
    for other in pivots.values():
        f = other.pop(p, 0)
        if f:
            for k, v in row.items():
                if k != p:
                    other[k] = (other.get(k, 0) - f * v) % P
    pivots[p] = row


def _rank(rows) -> int:
    """Rank mod P of sparse rows."""
    pivots: dict = {}
    for row in rows:
        _insert(row, pivots)
    return len(pivots)


def _chain(r: int, expansions, bound: int):
    """The successive quotients V_d = (Sym/I)_d over F_P, for d = 0..bound.

    W_0 is the constants, and W_d = V_{d-1}^r for d > 0: its column j*q + b is
    x_j times basis element b of V_{d-1}, with q = dim V_{d-1}.  By exactness
    of the Koszul complex, V_d is W_d modulo two families of relations:
    the images x_k b e_j - x_j b e_k for b in the basis of V_{d-2}, and the
    degree-d generators, each monomial x_j m' (j its first variable) placed
    in block j as the normal form of m'.  The basis of V_d is the non-pivot
    columns of the reduced echelon form of these relations, which gives the
    normal form in V_d of every column of W_d, hence the multiplication maps
    V_{d-1} -> V_d.

    Yields (dim V_d, free, residuals): ``free`` is dim W_d less the rank of
    the Koszul images, and ``residuals`` maps the index of each degree-d
    generator to its row reduced against those images.
    """
    maps: list = []  # maps[t][c]: normal form in V_t of column c of W_t
    dims: list = []  # dims[t] = dim V_t
    memo: dict = {}

    def place(m) -> dict:
        """The monomial m of degree t as a sparse vector of W_t."""
        j = next((j for j, a in enumerate(m) if a), None)
        if j is None:
            return {0: 1}
        rest = m[:j] + (m[j] - 1,) + m[j + 1 :]
        q = dims[sum(rest)]
        return {j * q + i: v for i, v in normal_form(rest).items()}

    def normal_form(m) -> dict:
        if m not in memo:
            images = maps[sum(m)]
            out: dict = {}
            for c, v in place(m).items():
                for i, w in images[c].items():
                    out[i] = (out.get(i, 0) + v * w) % P
            memo[m] = out
        return memo[m]

    for d in range(bound + 1):
        q = dims[d - 1] if d else 0
        ncols = r * q if d else 1
        pivots: dict = {}
        if d >= 2:
            q2, images = dims[d - 2], maps[d - 1]
            for b in range(q2):
                for j in range(r):
                    for k in range(j + 1, r):
                        row = {j * q + i: v for i, v in images[k * q2 + b].items()}
                        for i, v in images[j * q2 + b].items():
                            row[k * q + i] = -v % P
                        _insert(row, pivots)
        residuals = {}
        for g, (e, expansion) in enumerate(expansions):
            if e == d:
                row: dict = {}
                for m, coeff in expansion.items():
                    for c, v in place(m).items():
                        row[c] = (row.get(c, 0) + coeff * v) % P
                residuals[g] = _reduce(row, pivots)
        free = ncols - len(pivots)
        for row in residuals.values():
            _insert(row, pivots)
        basis = {c: i for i, c in enumerate(c for c in range(ncols) if c not in pivots)}
        maps.append(
            [
                {basis[k]: -v % P for k, v in pivots[c].items() if k != c}
                if c in pivots
                else {basis[c]: 1}
                for c in range(ncols)
            ]
        )
        dims.append(len(basis))
        yield len(basis), free, residuals


def _certified(r: int, expansions, bound: int, harmonics, vanishing):
    """For d = 0..bound, yield (dim (Sym/I)_d over Q, free, residuals) of ``_chain``.

    ``harmonics`` is the filtration on the points, and
    ``vanishing`` says whether the shifted binomials vanish on them; if so,
    its grDims, padded with zeros, bound the dimensions from below.  A chain
    dimension mod P bounds each from above, so one that meets the floor is
    exact; every other degree takes the exact rank of ``_exact_dim``.
    """
    gr = harmonics.gr_dims if vanishing else ()
    for d, (dim, free, residuals) in enumerate(_chain(r, expansions, bound)):
        exact = vanishing and dim == (gr[d] if d < len(gr) else 0)
        yield (dim if exact else _exact_dim(r, expansions, d)), free, residuals


def quotient_dims(va: VectorArrangement, cocircuits, bound: int, harmonics, vanishing) -> tuple:
    """Graded dimensions of Sym modulo the pure cocircuit powers, degrees 0..bound.

    ``harmonics`` is the filtration on the points, and
    ``vanishing`` says whether the shifted binomials vanish on them.
    """
    r = va.lattice_rank
    chain = _certified(r, _expansions(cocircuits, r), bound, harmonics, vanishing)
    return tuple(dim for dim, _, _ in chain)


def redundant_generators(va: VectorArrangement) -> tuple:
    """Indices of cocircuit generators implied by the others.

    Generator g of degree e is implied iff dropping it leaves the degree-e
    quotient dimension unchanged: then g lies in the ideal of the others, so
    the two ideals agree in every degree.  The degrees run to the length of
    the Tutte series, as in ``Analysis.power_dims``, whose quantities are
    read off one context; a generator of higher degree counts as implied.
    Dropping g leaves V_{<e} as it is, so the degree-e generator rows are
    reduced once against that degree's Koszul images, and the others'
    residual rows give the dimension without g mod P.  Dropping g can only
    enlarge the quotient, so a mod-P dimension equal to the full one proves
    g implied; otherwise one exact rank (``_exact_dim``) decides.  No
    minimality claim: the remaining set may itself contain further
    implications.
    """
    # imported here: ``analysis`` imports this module
    from .analysis import Analysis

    ctx = Analysis(va)
    bound = len(ctx.iz)
    r = va.lattice_rank
    exps = _expansions(ctx.cocircuits, r)
    implied = [e > bound for e, _ in exps]
    chain = _certified(r, exps, bound, ctx.harmonics, ctx.generators_vanish)
    for d, (full, free, residuals) in enumerate(chain):
        for g in residuals:
            others = [row for i, row in residuals.items() if i != g]
            implied[g] = (
                free - _rank(others) == full or _exact_dim(r, exps[:g] + exps[g + 1 :], d) == full
            )
    return tuple(i for i, x in enumerate(implied) if x)
