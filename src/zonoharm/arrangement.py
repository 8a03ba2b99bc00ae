"""Vector arrangements: labeled integer vectors spanning Z^r.

Covers loops/coloops, deletion and contraction, cocircuit enumeration via
corank-1 column subsets (which is also the unimodularity test), the
cocircuits of both minors derived from their parent's in one sweep (the
deletion's through one table of dropped cocircuits per parent), the
zonotope's facet description, and the interior lattice points obtained from
it.  The cocircuit scan cuts each subset's kernel from the kernels of the
column prefixes it shares with the subset before, and the coloops are read
off the one-element cocircuits, so one rank, in the constructor, is all an
arrangement costs; minors cost none.  A deletion's columns are sliced out
of its parent's and a contraction's are mapped by the integer kernel of the
contracted column, both without the constructor's checks.  The scan visits
up to C(n, r-1) column subsets, so ``check_cocircuit_scan_size`` caps n at
``COCIRCUIT_SCAN_MAX_GROUND`` columns; a report checks that first.

``Cocircuit`` is a named tuple.  ``VectorArrangement`` validates its fields
on construction; it is a ``linalg.Record``, immutable by convention: nothing
reassigns a field.  A set of interior points is a plain tuple of point
tuples, in the lexicographic order in which the scan finds them.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import CertificateError, NotTotallyUnimodularError, SizeExceededError
from .linalg import Mat, Record, det, kernel_step, rank

COCIRCUIT_SCAN_MAX_GROUND = 20


class VectorArrangement(Record):
    """A finite labeled family of columns in Z^r whose image spans Q^r."""

    __slots__ = ("lattice_rank", "ground", "columns")

    def __init__(self, lattice_rank: int, ground: tuple, columns: Mat):
        if columns.rows != lattice_rank or columns.cols != len(ground):
            raise ValueError("column matrix shape does not match rank and ground set")
        if len(set(ground)) != len(ground):
            raise ValueError("duplicate ground set labels")
        if not all(isinstance(x, int) for c in columns.data for x in c):
            raise ValueError("column entries must be integers")
        if rank(columns.data) != lattice_rank:  # a matrix and its transpose share their rank
            raise ValueError("columns do not span the ambient lattice")
        self.lattice_rank = lattice_rank
        self.ground = ground
        self.columns = columns

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


def loops_and_coloops(va: VectorArrangement, cocircuits) -> tuple:
    """Loops are zero columns; coloops are the one-element cocircuits among
    ``cocircuits``, the arrangement's.

    A coloop lies in every basis, so its complement spans a hyperplane
    (Oxley, *Matroid Theory*, 2.1).
    """
    loops = tuple(a for a, c in zip(va.ground, va.columns.data) if not any(c))
    coloops = {a for c in cocircuits if c.degree == 1 for a in c.support(va.ground)}
    return loops, tuple(a for a in va.ground if a in coloops)


def _spanning(lattice_rank: int, ground: tuple, columns: Mat) -> VectorArrangement:
    """An arrangement built without the constructor's checks.

    For minors only: the parent fixes the shape and the labels, and the
    caller certifies the span.
    """
    va = object.__new__(VectorArrangement)
    va.lattice_rank, va.ground, va.columns = lattice_rank, ground, columns
    return va


def delete_column(va: VectorArrangement, idx: int) -> VectorArrangement:
    """Drop the element at ``idx``; the parent's other column tuples are kept as they are.

    The result spans iff the element is not a coloop, which the caller
    certifies: no rank is run here.
    """
    data = va.columns.data
    kept = Mat(va.lattice_rank, va.size - 1, data[:idx] + data[idx + 1 :])
    return _spanning(va.lattice_rank, va.ground[:idx] + va.ground[idx + 1 :], kept)


def contract_column(va: VectorArrangement, idx: int, quotient) -> VectorArrangement:
    """Contract the element at ``idx``, given ``quotient``: a basis Q of the
    integer covectors that vanish on its primitive column a.

    Each other column c becomes Q c.  That lattice of covectors is saturated,
    so a covector x with x . a = 1 completes Q to a unimodular matrix, and Q
    maps Z^r onto Z^(r-1) with kernel Z a.  The parent spans, so these
    columns span Z^(r-1): no rank is run here.
    """
    data = va.columns.data
    out = tuple(tuple(sum(map(mul, u, c)) for u in quotient) for c in data[:idx] + data[idx + 1 :])
    ground = va.ground[:idx] + va.ground[idx + 1 :]
    return _spanning(va.lattice_rank - 1, ground, Mat(len(quotient), va.size - 1, out))


def check_cocircuit_scan_size(va: VectorArrangement) -> None:
    """Raise SizeExceededError if ``va`` is past the cocircuit scan's cap."""
    if va.size > COCIRCUIT_SCAN_MAX_GROUND:
        raise SizeExceededError(f"cocircuit scan limited to {COCIRCUIT_SCAN_MAX_GROUND} columns")


def enumerate_cocircuits(va: VectorArrangement) -> tuple:
    """All cocircuits up to sign, canonicalized and sorted by covector.

    The representative of {a, -a} has positive first nonzero entry.  Each
    support is the complement of a hyperplane, so the supports are minimal.
    Each cocircuit is the integer kernel of the first (r-1)-subset of
    columns, in lexicographic order, that spans its hyperplane.  A subset
    that misses the support of a cocircuit already found lies in that
    hyperplane, so it is dependent or spans it again; it gets no kernel.
    The support a subset misses moves to the front of the list tested, as
    the next subsets in lexicographic order mostly miss it too.
    The kernels come from a stack of prefix kernels: ``stack[k]`` is a basis
    of the kernel of the first k columns of the last subset that needed one,
    and a subset redoes only the ``kernel_step`` calls past the prefix it
    shares with that one.

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
    cols = va.columns.data
    found = []
    supports = []  # support bitmask of each cocircuit found
    stack = [[[int(i == j) for j in range(r)] for i in range(r)]]
    last = ()
    for sel in combinations(range(n), r - 1):
        mask = sum(1 << j for j in sel)
        for i, s in enumerate(supports):
            if not mask & s:  # the next subsets mostly miss this support too
                supports.insert(0, supports.pop(i))
                break
        else:
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


def deletion_drops(cocircuits) -> tuple:
    """For each cocircuit C, the bitmask of the element positions a whose
    deletion drops C: those for which some cocircuit C' has C' - C = {a}.

    The deletion's cocircuits are the minimal nonempty sets C - a (Oxley,
    *Matroid Theory*, 3.1).  A set C - a with a in C is minimal: it cannot
    contain a cocircuit that avoids a, nor strictly contain another C' - a,
    as C would contain that cocircuit or C'.  So a cocircuit C that avoids a
    is dropped exactly when it contains some nonempty C' - a with a in C',
    that is when C' - C = {a}.  One table serves the deletion of every
    element that is not a coloop.
    """
    supports = [sum(1 << i for i, v in enumerate(c.values) if v) for c in cocircuits]
    table = []
    for s in supports:
        drop = 0
        for t in supports:
            d = t & ~s
            if not d & (d - 1):  # at most one element of C' lies outside C
                drop |= d
        table.append(drop)
    return tuple(table)


def minor_cocircuits(cocircuits, drops, idx: int, contracted: VectorArrangement, quotient) -> tuple:
    """The cocircuits of the deletion and of the contraction of the element at
    ``idx``, derived in one sweep from ``cocircuits``, their parent's, and
    ``drops``, their ``deletion_drops`` table.

    The contraction's are the cocircuits that avoid the element; the
    deletion's are each C - a with a in C, and each cocircuit avoiding a
    whose bit a is clear in the table.  Each deletion cocircuit keeps its
    covector, so that tuple is ``enumerate_cocircuits`` of the deletion, in
    the same order.

    With ``contracted`` from ``contract_column`` and ``quotient`` its Q, in
    echelon form, a covector alpha that vanishes on the element is beta Q
    for the integer beta read off Q's pivots by back-substitution (exact, as
    Q spans a saturated lattice); beta pairs with each contracted column
    Q c as alpha pairs with c.  The sign is renormalized and the result
    sorted, so it is ``enumerate_cocircuits`` of the contraction;
    ``certify_pairings`` checks every beta before return.  Returns
    (deletion's, contraction's).
    """
    pivots = [next(j for j, x in enumerate(q) if x) for q in quotient]
    bit = 1 << idx
    deleted = []
    con = []
    for c, drop in zip(cocircuits, drops):
        v = c.values[idx]
        values = c.values[:idx] + c.values[idx + 1 :]
        if v:
            if any(values):
                d_plus, d_minus = (c.d_plus - 1, c.d_minus) if v > 0 else (c.d_plus, c.d_minus - 1)
                deleted.append(Cocircuit(c.covector, values, d_plus, d_minus))
            continue
        if not drop & bit:
            deleted.append(Cocircuit(c.covector, values, c.d_plus, c.d_minus))
        rest, beta = c.covector, ()
        for q, p in zip(quotient, pivots):
            t = rest[p] // q[p]
            rest = [x - t * y for x, y in zip(rest, q)]
            beta += (t,)
        if next(x for x in beta if x) < 0:
            beta, values = tuple(-x for x in beta), tuple(-x for x in values)
            con.append(Cocircuit(beta, values, c.d_minus, c.d_plus))
        else:
            con.append(Cocircuit(beta, values, c.d_plus, c.d_minus))
    con.sort(key=lambda c: c.covector)
    certify_pairings(contracted, con)
    return tuple(deleted), tuple(con)


def certify_pairings(va: VectorArrangement, cocircuits) -> None:
    """Raise CertificateError unless each covector pairs with the columns to its values.

    The columns span, so the values determine the covector: a derived
    cocircuit that passes is the one with those values.
    """
    cols = va.columns.data
    for c in cocircuits:
        if tuple(sum(map(mul, c.covector, col)) for col in cols) != c.values:
            raise CertificateError(f"covector {c.covector} does not pair to {c.values}")


def interior_lattice_points(va: VectorArrangement, cocircuits) -> tuple:
    """Lattice points strictly inside the zonotope of the arrangement.

    Any coloop forces emptiness; in rank 0 the single (empty) point remains.
    The points are those z in the coordinate bounding box of the zonotope
    with -d_-(a) < <a, z> < d_+(a) for every cocircuit a.  A depth-first scan
    fixes z_0, z_1, ... in turn and prunes a prefix as soon as, for some
    cocircuit, no completion inside the box can meet its inequalities; with
    the box's per-cocircuit suffix minima and maxima this narrows each
    coordinate to an interval.  The box contains the zonotope, and a
    cocircuit is tested exactly at its last nonzero coordinate, so the scan
    is exact.  ``cocircuits`` are the arrangement's.  Returns the points as
    a tuple of tuples, in strictly increasing lexicographic order: the scan
    visits each coordinate's interval upwards, so that order is the scan's
    own and nothing sorts it.
    """
    r = va.lattice_rank
    if r == 0:
        return ((),)
    if any(c.degree == 1 for c in cocircuits):  # a coloop is a one-element cocircuit
        return ()
    cols = va.columns.data
    lo = [sum(min(0, c[j]) for c in cols) for j in range(r)]
    hi = [sum(max(0, c[j]) for c in cols) for j in range(r)]
    # levels[j]: (k, a_j, low, high) for each cocircuit k with a_j != 0, where
    # a_j z_j must lie in [low - p_k, high - p_k] given the prefix pairing p_k
    levels = [[] for _ in range(r)]
    for k, c in enumerate(cocircuits):
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

    scan(0, [0] * len(cocircuits))
    return tuple(pts)
