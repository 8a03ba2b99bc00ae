"""Cocircuit ideal generators and truncated quotient dimensions.

Each cocircuit a contributes two generators: the shifted binomial
C(<a, x> + d_-(a) - 1, d(a) - 1), which vanishes identically on the interior
lattice points, and the pure power a^(d(a)-1), which cuts out the graded
quotient over Q.  The graded quotient dimensions are computed degree by
degree, with no symbolic ideal machinery.

The quotients V_d = (Sym/I)_d over Q are built by successive quotients:
V_d is V_{d-1}^r modulo the Koszul images of V_{d-2} and the degree-d
generators, which is exact because the Koszul complex of the variables is.
Every matrix has at most r * dim V_{d-1} columns.  No power is expanded
into monomials: a^t is carried by Horner steps, its normal form in V_t
multiplied by <a, x> and mapped into V_{t+1} by the chain's own maps.  The
arithmetic is fraction-free over Z: each echelon row is a primitive integer
row with a positive pivot entry, and each degree's basis is scaled by the
lcm of its pivot entries, so the multiplication maps stay integral.
Scaling a basis changes no rank, so every dimension is exact over Q.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .arrangement import (
    Cocircuit,
    VectorArrangement,
    check_cocircuit_scan_size,
    enumerate_cocircuits,
)
from .funcspace import binom_int
from .graphs import tutte_of_arrangement
from .harmonics import iz_hilbert_series


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


def _powers(cocircuits) -> list:
    """(e, covector) for the pure power a^e of each cocircuit a, e = d(a) - 1."""
    return [(c.degree - 1, c.covector) for c in cocircuits]


def _primitive(row: dict) -> dict:
    """A sparse integer row without its zero entries, divided by its content."""
    row = {k: v for k, v in row.items() if v}
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _eliminate(row: dict, c: int, pivot_row: dict) -> dict:
    """(d/g) row - (f/g) pivot_row, with f = row[c], d = pivot_row[c] > 0 and
    g = gcd(d, f): 0 at column c, which it drops.  It consumes ``row``."""
    f = row.pop(c)
    d = pivot_row[c]
    g = gcd(d, f)
    if d != g:
        row = {k: d // g * v for k, v in row.items()}
    f //= g
    for k, v in pivot_row.items():
        if k != c:
            row[k] = row.get(k, 0) - f * v
    return row


def _reduce(row: dict, pivots: dict) -> dict:
    """A sparse integer row, made primitive, with no entry at any pivot column
    of the reduced echelon ``pivots`` ({column: primitive row with a positive
    entry there and 0 at every other pivot column})."""
    out = {k: v for k, v in row.items() if v}
    for c in [c for c in out if c in pivots]:
        out = _eliminate(out, c, pivots[c])
    return _primitive(out)


def _insert(row: dict, pivots: dict) -> None:
    """Add a sparse row to the reduced echelon ``pivots``, keeping it reduced.

    The new pivot is the first column holding +-1, if any, and otherwise the
    first column: a unit pivot scales no row it reduces."""
    row = _reduce(row, pivots)
    if not row:
        return
    p = min((k for k, v in row.items() if v in (1, -1)), default=min(row))
    if row[p] < 0:
        row = {k: -v for k, v in row.items()}
    for c, other in pivots.items():
        if p in other:
            pivots[c] = _primitive(_eliminate(other, p, row))
    pivots[p] = row


def _rank(rows) -> int:
    """Rank over Q of sparse integer rows."""
    pivots: dict = {}
    for row in rows:
        _insert(row, pivots)
    return len(pivots)


def _horner(covector, row: dict, image: list, q: int) -> dict:
    """One Horner step: the W_t row of a^t through ``image``, the map
    W_t -> V_t, is v_t, and the W_{t+1} row of a^(t+1) = <a, x> a^t is
    a_j v_t in block j, with q = dim V_t."""
    v: dict = {}
    for c, x in row.items():
        for i, w in image[c].items():
            v[i] = v.get(i, 0) + x * w
    return {j * q + i: a * w for j, a in enumerate(covector) if a for i, w in v.items() if w}


def _chain(r: int, powers, bound: int):
    """The successive quotients V_d = (Sym/I)_d over Q, for d = 0..bound,
    of the pure powers a^e given as (e, covector) pairs in ``powers``.

    W_0 is the constants, and W_d = V_{d-1}^r for d > 0: its column j*q + b is
    x_j times basis element b of V_{d-1}, with q = dim V_{d-1}.  By exactness
    of the Koszul complex, V_d is W_d modulo two families of relations:
    the images x_k b e_j - x_j b e_k for b in the basis of V_{d-2}, and the
    degree-d generators.  A power is carried by Horner steps: the W_t row of
    a^t maps to v_t, its normal form in V_t (v_0 the constant 1), and the
    W_{t+1} row of a^(t+1) is a_j v_t in block j; at t = e it is the
    generator's row.  The basis of V_d is the non-pivot columns of the
    reduced echelon form of these relations, scaled by D = lcm of the pivot
    entries, which gives the normal form in V_d of every column of W_d, hence
    the multiplication maps V_{d-1} -> V_d: a non-pivot column c maps to D
    times its basis element, and a pivot column c to -(D / pivot entry) times
    its row at the non-pivot columns.  The scalings multiply every relation
    of a degree, and every carried power, by one nonzero constant, so no
    dimension depends on them.

    Yields (dim V_d, free, residuals): ``free`` is dim W_d less the rank of
    the Koszul images, and ``residuals`` maps the index of each degree-d
    generator to its row reduced against those images.
    """
    maps: list = []  # maps[t][c]: scaled normal form in V_t of column c of W_t
    dims: list = []  # dims[t] = dim V_t
    rows = {g: {0: 1} for g, (e, _) in enumerate(powers) if e <= bound}  # W_d row of a_g^d
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
                            row[k * q + i] = -v
                        _insert(row, pivots)
        residuals = {g: _reduce(row, pivots) for g, row in rows.items() if powers[g][0] == d}
        free = ncols - len(pivots)
        for row in residuals.values():
            _insert(row, pivots)
        basis = {c: i for i, c in enumerate(c for c in range(ncols) if c not in pivots)}
        scale = lcm(*(row[c] for c, row in pivots.items()))
        maps.append(
            [
                {basis[c]: scale}
                if c in basis
                else {basis[k]: -(scale // pivots[c][c]) * v for k, v in pivots[c].items() if k != c}
                for c in range(ncols)
            ]
        )
        n = len(basis)
        dims.append(n)
        rows = {
            g: _horner(powers[g][1], row, maps[d], n) for g, row in rows.items() if g not in residuals
        }
        yield n, free, residuals


def quotient_dims(va: VectorArrangement, cocircuits, bound: int) -> tuple:
    """Graded dimensions over Q of Sym modulo the pure cocircuit powers,
    degrees 0..bound."""
    return tuple(dim for dim, _, _ in _chain(va.lattice_rank, _powers(cocircuits), bound))


def redundant_generators(va: VectorArrangement) -> tuple:
    """Indices of cocircuit generators implied by the others.

    Generator g of degree e is implied iff dropping it leaves the degree-e
    quotient dimension unchanged: then g lies in the ideal of the others, so
    the two ideals agree in every degree.  The degrees run to the length of
    the Tutte series, as in ``Analysis.power_dims``, from the same
    cocircuits and Tutte polynomial; a generator of higher degree counts as
    implied.  Dropping g leaves V_{<e} as it is, so the degree-e generator
    rows are reduced once against that degree's Koszul images, and the rank
    of the others' residual rows gives the dimension without g.  No
    minimality claim: the remaining set may itself contain further
    implications.  Raises SizeExceededError before any other work when the
    cocircuit scan is past its cap.
    """
    check_cocircuit_scan_size(va)
    cocircuits = enumerate_cocircuits(va)
    bound = len(iz_hilbert_series(va, tutte_of_arrangement(va, cocircuits)))
    powers = _powers(cocircuits)
    implied = [e > bound for e, _ in powers]
    for full, free, residuals in _chain(va.lattice_rank, powers, bound):
        for g in residuals:
            others = [row for i, row in residuals.items() if i != g]
            implied[g] = free - _rank(others) == full
    return tuple(i for i, x in enumerate(implied) if x)
