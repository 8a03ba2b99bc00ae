"""Vector arrangements: labeled integer vectors spanning Z^r.

Covers loops/coloops, deletion and contraction, cocircuit enumeration via
corank-1 column subsets (which is also the unimodularity test), the
cocircuits of a minor derived from its parent's, the zonotope's facet
description, and the interior lattice points obtained from it.  The
cocircuit scan cuts each subset's kernel from the kernels of the column
prefixes it shares with the subset before, and the coloops are read off the
one-element cocircuits, so one rank, in the constructor, is all an
arrangement or a deletion costs.

``Cocircuit`` is a named tuple.  ``VectorArrangement`` and
``LatticePointSet`` validate and normalise their fields on construction;
they are plain classes, immutable by convention: nothing reassigns a field.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import CertificateError, IsColoopError, IsLoopError, NotTotallyUnimodularError
from .linalg import Mat, det, kernel_step, rank, xgcd


class VectorArrangement:
    """A finite labeled family of columns in Z^r whose image spans Q^r."""

    __slots__ = ("lattice_rank", "ground", "columns")

    def __init__(self, lattice_rank: int, ground: tuple, columns: Mat):
        if columns.rows != lattice_rank or columns.cols != len(ground):
            raise ValueError("column matrix shape does not match rank and ground set")
        if len(set(ground)) != len(ground):
            raise ValueError("duplicate ground set labels")
        if rank(columns) != lattice_rank:
            raise ValueError("columns do not span the ambient lattice")
        self.lattice_rank = lattice_rank
        self.ground = ground
        self.columns = columns

    def _key(self) -> tuple:
        return (self.lattice_rank, self.ground, self.columns)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"VectorArrangement(lattice_rank={self.lattice_rank!r},"
            f" ground={self.ground!r}, columns={self.columns!r})"
        )

    @property
    def size(self) -> int:
        return len(self.ground)

    def index_of(self, label) -> int:
        return self.ground.index(label)

    def column(self, label) -> tuple:
        return self.columns.col(self.index_of(label))


class Cocircuit(NamedTuple):
    """A primitive covector of minimal support, with its sign counts.

    ``values[i]`` is the pairing with the i-th ground element; for unimodular
    inputs these lie in {-1, 0, 1}.
    """

    covector: tuple
    values: tuple
    d_plus: int
    d_minus: int

    @property
    def degree(self) -> int:
        return self.d_plus + self.d_minus

    def support(self, ground) -> tuple:
        return tuple(a for a, v in zip(ground, self.values) if v)


class LatticePointSet:
    """A finite set of lattice points, stored in lexicographic order."""

    __slots__ = ("points",)

    def __init__(self, points: tuple):
        self.points = tuple(sorted(tuple(p) for p in points))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash((self.points,))

    def __repr__(self):
        return f"LatticePointSet(points={self.points!r})"

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return tuple(p) in set(self.points)

    def index_map(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}


def loops_and_coloops(va: VectorArrangement, cocircuits=None):
    """Loops are zero columns; coloops are the one-element cocircuits.

    A coloop lies in every basis, so its complement spans a hyperplane
    (Oxley, *Matroid Theory*, 2.1).  Pass the arrangement's cocircuits when
    they are already known; otherwise ``enumerate_cocircuits`` runs here and
    raises NotTotallyUnimodularError on an input it rejects.
    """
    cocs = enumerate_cocircuits(va) if cocircuits is None else cocircuits
    loops = tuple(a for j, a in enumerate(va.ground) if not any(va.columns.col(j)))
    coloops = {a for c in cocs if c.degree == 1 for a in c.support(va.ground)}
    return loops, tuple(a for a in va.ground if a in coloops)


def deletion(va: VectorArrangement, a) -> VectorArrangement:
    """Remove one non-coloop element; the lattice is unchanged."""
    idx = va.index_of(a)
    rest = [c for j, c in enumerate(va.columns.col_list()) if j != idx]
    try:
        return VectorArrangement(
            lattice_rank=va.lattice_rank,
            ground=va.ground[:idx] + va.ground[idx + 1 :],
            columns=Mat.from_cols(rest, rows=va.lattice_rank),
        )
    except ValueError:  # the parent's shape and labels are valid, so only the span fails
        raise IsColoopError(f"{a!r} is a coloop; deletion would drop the rank") from None


def _completion_transform(v) -> tuple:
    """Unimodular U with U v = e_1, and U^-1, built by sequential xgcd row ops.

    Requires v primitive.  Returns (U as rows, columns of U^-1); each row op
    on U is undone by the inverse column op on U^-1, so the first column of
    U^-1 ends as v.  Deterministic, so quotient coordinates are reproducible
    across runs.
    """
    r = len(v)
    col = [int(x) for x in v]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    inv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for i in range(1, r):
        if col[i] == 0:
            continue
        g, x, y = xgcd(col[0], col[i])
        a_, b_ = col[0] // g, col[i] // g
        u0, ui = U[0], U[i]
        U[0] = [x * p + y * q for p, q in zip(u0, ui)]
        U[i] = [-b_ * p + a_ * q for p, q in zip(u0, ui)]
        w0, wi = inv[0], inv[i]
        inv[0] = [a_ * p + b_ * q for p, q in zip(w0, wi)]
        inv[i] = [-y * p + x * q for p, q in zip(w0, wi)]
        col[0], col[i] = g, 0
    if col[0] < 0:
        U[0] = [-x for x in U[0]]
        inv[0] = [-x for x in inv[0]]
        col[0] = -col[0]
    if col[0] != 1:
        raise ValueError("column is not primitive")
    return U, inv


def contraction_data(va: VectorArrangement, a):
    """Contraction by a non-loop element plus the quotient map.

    Returns (contracted, transform, inverse) where ``transform`` is the
    unimodular matrix U with U * chi(a) = e_1 and ``inverse`` is U^-1; points
    map to the quotient by z |-> (U z)[1:].
    """
    col = va.column(a)
    if not any(col):
        raise IsLoopError(f"{a!r} is a loop; contraction is undefined")
    rows, inv_cols = _completion_transform(col)
    U = Mat.from_rows(rows)
    idx = va.index_of(a)
    new_cols = []
    for j, c in enumerate(va.columns.col_list()):
        if j == idx:
            continue
        new_cols.append(U.matvec(c)[1:])
    contracted = VectorArrangement(
        lattice_rank=va.lattice_rank - 1,
        ground=tuple(x for x in va.ground if x != a),
        columns=Mat.from_cols(new_cols, rows=va.lattice_rank - 1),
    )
    return contracted, U, Mat.from_cols(inv_cols, rows=va.lattice_rank)


def enumerate_cocircuits(va: VectorArrangement) -> tuple:
    """All cocircuits up to sign, canonicalized and sorted by covector.

    The representative of {a, -a} has positive first nonzero entry.  Each
    support is the complement of a hyperplane, so the supports are minimal.
    Each cocircuit is the integer kernel of the first (r-1)-subset of
    columns, in lexicographic order, that spans its hyperplane.  A subset
    that misses the support of a cocircuit already found lies in that
    hyperplane, so it is dependent or spans it again; it is skipped without
    a kernel.  The kernels come from a stack of prefix kernels: ``stack[k]``
    is a basis of the kernel of the first k columns of the last subset that
    needed one, and a subset redoes only the ``kernel_step`` calls past the
    prefix it shares with that one.

    This is the unimodularity test: every cocircuit pairs into {-1, 0, 1} iff
    every basis of columns has determinant +-1, i.e. iff the arrangement is
    totally unimodular after a change of lattice basis.  Otherwise raises
    NotTotallyUnimodularError with a witness basis: the (r-1)-subset that
    defines the offending cocircuit plus a column it pairs to outside
    {-1, 0, 1}.  That basis's determinant is a nonzero multiple of the
    pairing, so it is not +-1.
    """
    r, n = va.lattice_rank, va.size
    if r == 0:
        return ()
    cols = va.columns.col_list()
    found = []
    supports = []  # support bitmask of each cocircuit found
    stack = [[[int(i == j) for j in range(r)] for i in range(r)]]
    last = ()
    for sel in combinations(range(n), r - 1):
        mask = sum(1 << j for j in sel)
        if not all(mask & s for s in supports):
            continue
        k = 0
        while k < len(stack) - 1 and sel[k] == last[k]:
            k += 1
        del stack[k + 1 :]
        last = sel
        for j in sel[k:]:
            cut = kernel_step(stack[-1], cols[j])
            if cut is None:  # the subset has rank below r - 1
                break
            stack.append(cut)
        else:
            (alpha,) = stack[-1]
            if next(x for x in alpha if x) < 0:
                alpha = [-x for x in alpha]
            alpha = tuple(alpha)
            values = tuple(sum(map(mul, alpha, c)) for c in cols)
            bad = next((j for j, v in enumerate(values) if v not in (-1, 0, 1)), None)
            if bad is not None:
                basis = sorted(sel + (bad,))
                raise NotTotallyUnimodularError(
                    tuple(va.ground[j] for j in basis), det([cols[j] for j in basis]), alpha, values
                )
            found.append(Cocircuit(alpha, values, values.count(1), values.count(-1)))
            supports.append(sum(1 << j for j, v in enumerate(values) if v))
    return tuple(sorted(found, key=lambda c: c.covector))


def deletion_cocircuits(va: VectorArrangement, a, cocircuits) -> tuple:
    """The cocircuits of ``deletion(va, a)``, derived from those of ``va``.

    They are the minimal nonempty sets C - a (Oxley, *Matroid Theory*, 3.1).
    Each keeps its covector and drops the value at ``a``, so the result is
    ``enumerate_cocircuits`` of the deletion, in the same order.
    """
    idx = va.index_of(a)
    restricted = []
    for c in cocircuits:
        values = c.values[:idx] + c.values[idx + 1 :]
        support = sum(1 << i for i, v in enumerate(values) if v)
        if support:
            restricted.append((support, c.covector, values))
    supports = [s for s, _, _ in restricted]
    return tuple(
        Cocircuit(covector, values, values.count(1), values.count(-1))
        for s, covector, values in restricted
        if not any(t & s == t != s for t in supports)
    )


def contraction_cocircuits(
    va: VectorArrangement, a, cocircuits, contracted: VectorArrangement, inverse: Mat
) -> tuple:
    """The cocircuits of the contraction by ``a``, derived from those of ``va``.

    They are the cocircuits that avoid ``a`` (Oxley, *Matroid Theory*, 3.1).
    With ``contracted`` and ``inverse`` = U^-1 from ``contraction_data``,
    covector alpha becomes beta with (0, beta) = alpha U^-1, which pairs with
    each contracted column (U c)[1:] as alpha pairs with c.  The sign is
    renormalized and the result sorted, so it is ``enumerate_cocircuits`` of
    the contraction; ``certify_pairings`` checks every beta before return.
    """
    idx = va.index_of(a)
    lift = inverse.col_list()[1:]
    out = []
    for c in cocircuits:
        if c.values[idx]:
            continue
        beta = tuple(sum(map(mul, c.covector, u)) for u in lift)
        values = c.values[:idx] + c.values[idx + 1 :]
        d_plus, d_minus = c.d_plus, c.d_minus
        if next(x for x in beta if x) < 0:
            beta = tuple(-x for x in beta)
            values = tuple(-v for v in values)
            d_plus, d_minus = d_minus, d_plus
        out.append(Cocircuit(beta, values, d_plus, d_minus))
    out.sort(key=lambda c: c.covector)
    certify_pairings(contracted, out)
    return tuple(out)


def certify_pairings(va: VectorArrangement, cocircuits) -> None:
    """Raise CertificateError unless each covector pairs with the columns to its values.

    The columns span, so the values determine the covector: a derived
    cocircuit that passes is the one with those values.
    """
    cols = va.columns.col_list()
    for c in cocircuits:
        if tuple(sum(map(mul, c.covector, col)) for col in cols) != c.values:
            raise CertificateError(f"covector {c.covector} does not pair to {c.values}")


def interior_lattice_points(va: VectorArrangement, cocircuits=None) -> LatticePointSet:
    """Lattice points strictly inside the zonotope of the arrangement.

    Any coloop forces emptiness; in rank 0 the single (empty) point remains.
    The points are those z in the coordinate bounding box of the zonotope
    with -d_-(a) < <a, z> < d_+(a) for every cocircuit a.  A depth-first scan
    fixes z_0, z_1, ... in turn and prunes a prefix as soon as, for some
    cocircuit, no completion inside the box can meet its inequalities; with
    the box's per-cocircuit suffix minima and maxima this narrows each
    coordinate to an interval.  The box contains the zonotope, and a
    cocircuit is tested exactly at its last nonzero coordinate, so the scan
    is exact.  Points come out in lexicographic order.  Pass the
    arrangement's cocircuits when they are already known.
    """
    r = va.lattice_rank
    if r == 0:
        return LatticePointSet(((),))
    cocs = enumerate_cocircuits(va) if cocircuits is None else cocircuits
    if any(c.degree == 1 for c in cocs):  # a coloop is a one-element cocircuit
        return LatticePointSet(())
    cols = va.columns.col_list()
    lo = [sum(min(0, c[j]) for c in cols) for j in range(r)]
    hi = [sum(max(0, c[j]) for c in cols) for j in range(r)]
    # levels[j]: (k, a_j, low, high) for each cocircuit k with a_j != 0, where
    # a_j z_j must lie in [low - p_k, high - p_k] given the prefix pairing p_k
    levels = [[] for _ in range(r)]
    for k, c in enumerate(cocs):
        low, high = 1 - c.d_minus, c.d_plus - 1
        for j in reversed(range(r)):
            a = c.covector[j]
            if a:
                levels[j].append((k, a, low, high))
                low -= max(a * lo[j], a * hi[j])
                high -= min(a * lo[j], a * hi[j])
    pts = []
    z = [0] * r

    def scan(j, prefix):
        zlo, zhi = lo[j], hi[j]
        for k, a, low, high in levels[j]:
            t_lo, t_hi = low - prefix[k], high - prefix[k]
            if a < 0:
                t_lo, t_hi = t_hi, t_lo
            zlo = max(zlo, -(-t_lo // a))
            zhi = min(zhi, t_hi // a)
        if j + 1 == r:
            for v in range(zlo, zhi + 1):
                z[j] = v
                pts.append(tuple(z))
            return
        for v in range(zlo, zhi + 1):
            z[j] = v
            nxt = list(prefix)
            for k, a, _, _ in levels[j]:
                nxt[k] += a * v
            scan(j + 1, nxt)

    scan(0, [0] * len(cocs))
    return LatticePointSet(tuple(pts))
