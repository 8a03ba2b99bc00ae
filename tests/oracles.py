"""Brute-force reference computations that tests compare the library against."""

import json
from itertools import combinations, islice
from math import factorial, prod
from operator import mul

from zonoharm.arrangement import (
    Cocircuit,
    VectorArrangement,
    certify_pairings,
    contract_column,
    delete_column,
    enumerate_cocircuits,
)
from zonoharm.errors import NotTotallyUnimodularError, ZonoharmError
from zonoharm.funcspace import binom_int, binomial_product_rows
from zonoharm.graphs import BivariatePolynomial, _binary_tutte, spanning_forest, tutte_of_arrangement
from zonoharm.harmonics import iz_hilbert_series
from zonoharm.linalg import IntRowLattice, Mat, det, integer_kernel, saturate, xgcd
from zonoharm.report import JSON_INT_LIMIT


def identity(n):
    """The n x n identity matrix."""
    return Mat.from_cols([[int(i == j) for i in range(n)] for j in range(n)], rows=n)


def row_list(m):
    """The rows of a ``Mat``, as lists, read off its stored columns."""
    return [[c[i] for c in m.data] for i in range(m.rows)]


def matvec(m, v) -> tuple:
    """The product of a ``Mat`` or a list of integer rows with the vector ``v``."""
    rows = row_list(m) if isinstance(m, Mat) else m
    assert all(len(row) == len(v) for row in rows)
    return tuple(sum(map(mul, row, v)) for row in rows)


def bareiss_rank(m) -> int:
    """Exact rank over Q of a ``Mat`` or a list of integer rows, by
    fraction-free Gaussian elimination (Bareiss), independent of the
    library's integer echelon."""
    rows = row_list(m) if isinstance(m, Mat) else [list(r) for r in m]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for j in range(c, ncols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        r += 1
        if r == len(rows):
            break
    return r


class IsLoopError(ZonoharmError):
    """Operation requires a non-loop element."""


class IsColoopError(ZonoharmError):
    """Operation requires a non-coloop element."""


def deletion(va: VectorArrangement, a) -> VectorArrangement:
    """Remove one non-coloop element; the lattice is unchanged.

    A coloop is found by the rank of the remaining columns, not by cocircuits.
    """
    deleted = delete_column(va, va.index_of(a))
    if bareiss_rank(deleted.columns) != va.lattice_rank:
        raise IsColoopError(f"{a!r} is a coloop; deletion would drop the rank")
    return deleted


def contraction_data(va: VectorArrangement, a):
    """Contraction by a non-loop element plus the quotient map.

    Returns (contracted, quotient) where ``quotient`` is Q, the integer
    kernel of chi(a) as echelon rows, which ``assert_quotient_map`` checks
    without the kernel code; points map to the quotient by z |-> Q z.
    """
    idx = va.index_of(a)
    col = va.columns.col(idx)
    if not any(col):
        raise IsLoopError(f"{a!r} is a loop; contraction is undefined")
    quotient = integer_kernel([col], va.lattice_rank)
    assert_quotient_map(quotient, col)
    return contract_column(va, idx, quotient), quotient


def unit_covector(a) -> list:
    """An integer x with x . a = 1 for a primitive ``a``, by chained xgcd:
    after entry i, x . a[: i + 1] is the gcd of those entries."""
    x, g = [0] * len(a), 0
    for i, v in enumerate(a):
        g, s, t = xgcd(g, v)
        x = [s * y for y in x]
        x[i] += t
    if g != 1:
        raise ValueError("vector is not primitive")
    return x


def assert_quotient_map(quotient, a) -> None:
    """Q maps Z^r onto Z^(r-1) with kernel Z a: Q has r - 1 rows, Q a = 0,
    and [x; Q] has determinant +-1 (Bareiss) for an x with x . a = 1."""
    assert len(quotient) == len(a) - 1
    assert not any(matvec(quotient, a))
    assert det([unit_covector(a), *quotient]) in (1, -1)


def scanned_minor_cocircuits(cocircuits, idx: int, contracted, quotient) -> tuple:
    """``arrangement.minor_cocircuits`` without the drop table: the deletion
    keeps a cocircuit C that avoids the element unless C contains a whole
    nonempty C' - a with a in C', found by scanning every such C' - a.  A
    contraction covector beta solves beta Q = alpha through the row HNF.

    Returns (deletion's, contraction's), in the library's order.
    """
    kept = []  # (support, cocircuit) for each candidate; support None for a C - a with a in C
    cuts = []  # the support of each C - a with a in C
    con = []
    for c in cocircuits:
        v = c.values[idx]
        values = c.values[:idx] + c.values[idx + 1 :]
        if v:
            if any(values):
                cuts.append(sum(1 << i for i, x in enumerate(values) if x))
                d_plus, d_minus = (c.d_plus - 1, c.d_minus) if v > 0 else (c.d_plus, c.d_minus - 1)
                kept.append((None, Cocircuit(c.covector, values, d_plus, d_minus)))
            continue
        support = sum(1 << i for i, x in enumerate(values) if x)
        kept.append((support, Cocircuit(c.covector, values, c.d_plus, c.d_minus)))
        beta = solve_row_lattice(quotient, c.covector)
        if next(x for x in beta if x) < 0:
            beta, values = tuple(-x for x in beta), tuple(-x for x in values)
            con.append(Cocircuit(beta, values, c.d_minus, c.d_plus))
        else:
            con.append(Cocircuit(beta, values, c.d_plus, c.d_minus))
    deleted = tuple(c for s, c in kept if s is None or not any(t & s == t for t in cuts))
    con.sort(key=lambda c: c.covector)
    certify_pairings(contracted, con)
    return deleted, tuple(con)


def violating_minor(va):
    """First square subdeterminant of the literal column matrix outside {-1, 0, 1}, or None.

    Returns (row_indices, ground_labels, determinant).  This tests total
    unimodularity of the matrix as written, which depends on the lattice
    basis; the library's own test (``enumerate_cocircuits``) does not.
    """
    r, n = va.lattice_rank, va.size
    rows = row_list(va.columns)
    for k in range(1, min(r, n) + 1):
        for rsel in combinations(range(r), k):
            for csel in combinations(range(n), k):
                d = det([[rows[i][j] for j in csel] for i in rsel])
                if d not in (-1, 0, 1):
                    return rsel, tuple(va.ground[j] for j in csel), d
    return None


def echelon_integer_kernel(rows, ncols: int) -> tuple:
    """Canonical basis rows of the integer kernel, read off the echelon of [rows^T | I].

    The echelon rows whose pivot lies in the identity block vanish on the
    left block, so their tails are kernel vectors; they form a basis of the
    kernel lattice (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.4), in row-style Hermite form.
    """
    rows = [tuple(r) for r in rows]
    k = len(rows)
    lattice = IntRowLattice(k + ncols)
    for j in range(ncols):
        lattice.add([r[j] for r in rows] + [int(i == j) for i in range(ncols)])
    canon = canonical_rows(lattice)
    return tuple(row[k:] for row, c in zip(canon, lattice.pivot_cols) if c >= k)


def _cocircuit_or_raise(va, cols, sel, alpha):
    """The cocircuit of covector ``alpha`` found on ``sel``, or the library's witness error."""
    values = tuple(sum(x * y for x, y in zip(alpha, c)) for c in cols)
    bad = next((j for j, v in enumerate(values) if v not in (-1, 0, 1)), None)
    if bad is not None:
        basis = sorted(sel + (bad,))
        raise NotTotallyUnimodularError(
            tuple(va.ground[j] for j in basis), det([cols[j] for j in basis]), alpha, values
        )
    return Cocircuit(alpha, values, values.count(1), values.count(-1))


def echelon_cocircuits(va):
    """The lexicographic cocircuit scan with its support-mask skip, one
    ``echelon_integer_kernel`` per subset that the masks do not skip."""
    r, n = va.lattice_rank, va.size
    if r == 0:
        return ()
    cols = va.columns.col_list()
    found, supports = [], []
    for sel in combinations(range(n), r - 1):
        mask = sum(1 << j for j in sel)
        if not all(mask & s for s in supports):
            continue
        kern = echelon_integer_kernel([cols[j] for j in sel], r)
        if len(kern) == 1:
            c = _cocircuit_or_raise(va, cols, sel, kern[0])
            found.append(c)
            supports.append(sum(1 << j for j, v in enumerate(c.values) if v))
    return tuple(sorted(found, key=lambda c: c.covector))


def unpruned_cocircuits(va):
    """The cocircuit scan with an ``echelon_integer_kernel`` on every (r-1)-subset of columns.

    Same order of discovery, so the same result and, for a rejected input,
    the same witness basis and determinant.
    """
    r, n = va.lattice_rank, va.size
    if r == 0:
        return ()
    cols = va.columns.col_list()
    seen = {}
    for sel in combinations(range(n), r - 1):
        kern = echelon_integer_kernel([cols[j] for j in sel], r)
        if len(kern) == 1 and kern[0] not in seen:
            seen[kern[0]] = _cocircuit_or_raise(va, cols, sel, kern[0])
    return tuple(sorted(seen.values(), key=lambda c: c.covector))


def rank_loops_and_coloops(va):
    """Loops are zero columns; coloops are columns whose removal drops the rank."""
    cols = va.columns.col_list()
    loops = tuple(a for a, c in zip(va.ground, cols) if not any(c))
    coloops = tuple(
        a
        for i, a in enumerate(va.ground)
        if any(cols[i])
        and bareiss_rank(Mat.from_cols(cols[:i] + cols[i + 1 :], rows=va.lattice_rank)) < va.lattice_rank
    )
    return loops, coloops


def bareiss_tutte(va):
    """Tutte polynomial of the column matroid by the corank-nullity sum, with a
    Bareiss rank over Q for each of the 2^n column subsets."""
    n = va.size
    r = va.lattice_rank
    cols = va.columns.col_list()
    acc = {}
    for size in range(n + 1):
        for sel in combinations(range(n), size):
            rk = bareiss_rank(Mat.from_cols([cols[j] for j in sel], rows=r)) if sel else 0
            p, q = r - rk, size - rk
            for i in range(p + 1):
                ci = binom_int(p, i) * (-1) ** (p - i)
                for j in range(q + 1):
                    c = ci * binom_int(q, j) * (-1) ** (q - j)
                    acc[(i, j)] = acc.get((i, j), 0) + c
    return BivariatePolynomial.from_dict(acc)


def signed_incidence(g) -> list:
    """The rows of the |V| x |E| signed incidence matrix: arrow a's column is
    +1 at its head and -1 at its tail, so a self-loop gives a zero column."""
    vindex = {v: i for i, v in enumerate(g.vertices)}
    rows = [[0] * len(g.arrows) for _ in g.vertices]
    for j, a in enumerate(g.arrows):
        rows[vindex[a.head]][j] += 1
        rows[vindex[a.tail]][j] -= 1
    return rows


def tutte_polynomial(g):
    """Tutte polynomial of the graph's cycle matroid by memoised deletion-contraction.

    Each arrow is the unsigned column of the incidence matrix over GF(2): the
    bitmask of its two ends, 0 for a self-loop.  A set of arrows is
    independent over GF(2) exactly when it is a forest, so these columns
    represent the cycle matroid (Oxley, *Matroid Theory*, 5.1) with no
    coordinatisation to certify.
    """
    vindex = {v: i for i, v in enumerate(g.vertices)}
    return _binary_tutte([(1 << vindex[a.tail]) ^ (1 << vindex[a.head]) for a in g.arrows])


def su2_poincare_polynomial(g):
    """Coefficients of t^rank * T_G(1/t, 0), the Poincare polynomial of the
    SU(2) graphical configuration space, from the graph's own Tutte polynomial."""
    rk = len(spanning_forest(g))
    xs = {i: c for i, j, c in tutte_polynomial(g).terms if j == 0}
    coeffs = [xs.get(rk - m, 0) for m in range(rk + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def theta_triples(cycles):
    """Cycle triples whose classes admit signs summing to zero, by trying every triple."""
    triples = []
    for i, j, k in combinations(range(len(cycles)), 3):
        vi, vj, vk = (cycles[x].class_vector for x in (i, j, k))
        if any(
            all(a + sj * b + sk * c == 0 for a, b, c in zip(vi, vj, vk))
            for sj in (1, -1)
            for sk in (1, -1)
        ):
            triples.append((cycles[i], cycles[j], cycles[k]))
    return tuple(triples)


def exponents_by_compositions(r: int, d: int) -> tuple:
    """Exponent tuples of total degree exactly d in r variables, read off the
    bar positions of each composition of d and then sorted descending-lex."""
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


def parent_steps_by_position(r: int, d: int) -> tuple:
    """(k, j, e_j) for each exponent e of degree d > 0, in the order of
    ``exponents_by_compositions``: j is e's last nonzero coordinate and k the
    position of e - u_j among the exponents of degree d - 1, looked up."""
    position = {e: k for k, e in enumerate(exponents_by_compositions(r, d - 1))}
    steps = []
    for e in exponents_by_compositions(r, d):
        j = max(c for c in range(r) if e[c])
        steps.append((position[e[:j] + (e[j] - 1,) + e[j + 1 :]], j, e[j]))
    return tuple(steps)


def binomial_product_value(exps, point):
    """Value of prod_j C(x_j, i_j) at ``point``, one binomial coefficient at a time."""
    return prod(binom_int(x, i) for x, i in zip(point, exps))


def monomial_value(exps, point):
    """Value of the monomial prod_j x_j^i_j at ``point``."""
    return prod(x**i for x, i in zip(point, exps))


def pointwise_rows(r, degree, points, value=binomial_product_value):
    """Rows of ``value`` at each point, one per exponent of total degree <=
    ``degree`` in r variables, in the order of ``exponents_by_compositions``."""
    return [
        [value(e, p) for p in points]
        for d in range(degree + 1)
        for e in exponents_by_compositions(r, d)
    ]


def row_hnf(rows, ncols: int, transform: bool = False):
    """Canonical row-style Hermite normal form of the row lattice, in one batch.

    Returns (hnf_rows, pivot_cols) or, with ``transform``, additionally the
    full unimodular U with U * input = [hnf_rows; 0].
    """
    work = [[int(x) for x in r] for r in rows]
    n = len(work)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transform else None
    r = 0
    pivot_cols = []
    for c in range(ncols):
        piv = next((i for i in range(r, n) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        if U is not None:
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, n):
            if work[i][c]:
                g, x, y = xgcd(work[r][c], work[i][c])
                a_, b_ = work[r][c] // g, work[i][c] // g
                wr, wi = work[r], work[i]
                work[r] = [x * p + y * q for p, q in zip(wr, wi)]
                work[i] = [-b_ * p + a_ * q for p, q in zip(wr, wi)]
                if U is not None:
                    ur, ui = U[r], U[i]
                    U[r] = [x * p + y * q for p, q in zip(ur, ui)]
                    U[i] = [-b_ * p + a_ * q for p, q in zip(ur, ui)]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
            if U is not None:
                U[r] = [-x for x in U[r]]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    # reduce entries above each pivot into [0, pivot)
    for k in range(len(pivot_cols)):
        c = pivot_cols[k]
        p = work[k][c]
        for i in range(k):
            q = work[i][c] // p
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[k])]
                if U is not None:
                    U[i] = [a - q * b for a, b in zip(U[i], U[k])]
    hnf = [tuple(work[i]) for i in range(len(pivot_cols))]
    if transform:
        return hnf, tuple(pivot_cols), [tuple(u) for u in U]
    return hnf, tuple(pivot_cols)


def pivot_cols(echelon_rows) -> tuple:
    """Column of each echelon row's first nonzero entry."""
    return tuple(next(j for j, x in enumerate(r) if x) for r in echelon_rows)


def hermite_rows(echelon_rows, pivot_cols) -> tuple:
    """The canonical rows (row-style Hermite form) of an echelon basis with
    positive pivots: each entry above a pivot is reduced into [0, pivot).
    They depend only on the lattice, not on the echelon basis given."""
    work = [list(r) for r in echelon_rows]
    for k, c in enumerate(pivot_cols):
        row = work[k]
        p = row[c]
        for i in range(k):
            q = work[i][c] // p
            if q:
                work[i][c:] = [a - q * b for a, b in zip(work[i][c:], row[c:])]
    return tuple(map(tuple, work))


def canonical_rows(lattice) -> tuple:
    """The canonical rows of an ``IntRowLattice``'s echelon."""
    return hermite_rows(lattice.rows, lattice.pivot_cols)


class XgcdRowLattice(IntRowLattice):
    """``IntRowLattice`` with the reference insert: the pivot scan restarts
    from column 0 after each step, and every stored pivot the vector meets
    takes an xgcd step that rebuilds the stored row, divisible or not."""

    def add(self, vec) -> None:
        v = [int(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        for idx in range(len(self.rows) + 1):
            c = next((j for j in range(self.ncols) if v[j]), None)
            if c is None:
                return
            if idx == len(self.rows) or self.pivot_cols[idx] > c:
                if v[c] < 0:
                    v = [-x for x in v]
                self.rows.insert(idx, v)
                self.pivot_cols.insert(idx, c)
                return
            if self.pivot_cols[idx] < c:
                continue
            row = self.rows[idx]
            g, x, y = xgcd(row[c], v[c])
            a_, b_ = row[c] // g, v[c] // g
            new_row = [x * p + y * q for p, q in zip(row, v)]
            v = [-b_ * p + a_ * q for p, q in zip(row, v)]
            self.rows[idx] = new_row


def eager_filtration(points, r: int, max_degree=None) -> list:
    """(canonical rows, saturated rows, saturation index) per degree, as the
    filtration is built when every degree is reduced to canonical rows at
    once: the reference insert, then ``canonical_rows``, certified by unit
    pivots or else saturated."""
    n = len(points)
    if n == 0:
        return []
    lattice = XgcdRowLattice(n)
    out = []
    for degree, block in enumerate(binomial_product_rows(points, r)):
        for row in block:
            lattice.add(row)
        canon = canonical_rows(lattice)
        if all(row[c] == 1 for row, c in zip(canon, lattice.pivot_cols)):
            out.append((canon, canon, 1))
        else:
            sat, index = saturate(canon, n)
            out.append((canon, hermite_rows(sat, lattice.pivot_cols), index))
        if lattice.rank == n or (max_degree is not None and degree >= max_degree):
            return out


def kernel_hnf(rows, ncols):
    """Canonical rows of the integer kernel of ``rows``: the rows of the
    transform U of the batch HNF of rows^T that U sends to zero."""
    columns = [[r[j] for r in rows] for j in range(ncols)]
    hnf, _, U = row_hnf(columns, len(rows), transform=True)
    return row_hnf(U[len(hnf) :], ncols)[0]


def saturation_hnf(rows, ncols):
    """Canonical rows of the saturation of the row lattice: the kernel of the kernel."""
    return kernel_hnf(kernel_hnf(rows, ncols), ncols)


def solve_row_lattice(gen_rows, target):
    """Integer coefficients expressing target in the row lattice, or None.

    ``sum(c[i] * gen_rows[i]) == target`` with integer c when solvable.
    """
    gen_rows = [list(r) for r in gen_rows]
    target = list(target)
    if not gen_rows:
        return () if all(x == 0 for x in target) else None
    ncols = len(gen_rows[0])
    hnf, pivots, U = row_hnf(gen_rows, ncols, transform=True)
    t = list(target)
    coeffs_on_h = []
    for i, c in enumerate(pivots):
        p = hnf[i][c]
        if t[c] % p:
            return None
        q = t[c] // p
        coeffs_on_h.append(q)
        if q:
            t = [a - q * b for a, b in zip(t, hnf[i])]
    if any(t):
        return None
    n = len(gen_rows)
    out = [0] * n
    for q, urow in zip(coeffs_on_h, U):
        if q:
            for j in range(n):
                out[j] += q * urow[j]
    return tuple(out)


def eval_rows_up_to(h, degree):
    """Evaluation rows on h's points of every binomial product of degree <= ``degree``."""
    if h.point_count == 0 or degree < 0:
        return []
    blocks = binomial_product_rows(h.points, len(h.points[0]))
    return [row for block in islice(blocks, min(degree, h.top_degree) + 1) for row in block]


def exactness_on_eval_rows(ctx, ctx_del, ctx_con, element, bars):
    """The deletion/contraction exactness ranks on every binomial-product
    evaluation row of each filtered piece, not only on a basis of it.

    The verdict of ``analysis._exactness_ranks`` on the positions that
    ``analysis._positions`` finds, False where one is missing; the points
    are looked up here, independently.
    """
    h, h_del, h_con = ctx.harmonics, ctx_del.harmonics, ctx_con.harmonics
    col = ctx.va.column(element)
    index = {z: k for k, z in enumerate(ctx.points)}
    shift_idx = []
    for z in ctx_del.points:
        zs = tuple(a + b for a, b in zip(z, col))
        if z not in index or zs not in index:
            return False
        shift_idx.append((index[z], index[zs]))
    con_index = {z: k for k, z in enumerate(ctx_con.points)}
    if any(zbar not in con_index for zbar in bars):
        return False
    bar_idx = [con_index[zbar] for zbar in bars]

    n = h.point_count
    m = len(ctx_del.points)
    for i in range(max(h.top_degree, h_con.top_degree, h_del.top_degree + 1) + 1):
        rows = eval_rows_up_to(h, i)
        xi_rows = [tuple(f[bar_idx[k]] for k in range(n)) for f in eval_rows_up_to(h_con, i)]
        if bareiss_rank(xi_rows) != h_con.q_dim(i):
            return False
        if bareiss_rank(list(rows) + xi_rows) != h.q_dim(i):
            return False
        d_rows = [tuple(f[b] - f[a] for a, b in shift_idx) for f in rows]
        if m:
            rows_del = eval_rows_up_to(h_del, i - 1)
            if bareiss_rank(d_rows) != h_del.q_dim(i - 1):
                return False
            if bareiss_rank(list(rows_del) + d_rows) != h_del.q_dim(i - 1):
                return False
            if any(f[b] - f[a] for f in xi_rows for a, b in shift_idx):
                return False
        if h.q_dim(i) != h_con.q_dim(i) + h_del.q_dim(i - 1):
            return False
    return True


def dense_power_expansion(covector, e: int, r: int) -> dict:
    """Monomial coefficients of (<covector, x>)^e as {exponents: coeff}, over
    all C(r+e-1, e) exponents of degree e, keeping the nonzero ones."""
    out: dict = {}
    for exps in exponents_by_compositions(r, e):
        coeff = factorial(e)
        for k in exps:
            coeff //= factorial(k)
        for a, k in zip(covector, exps):
            if k:
                coeff *= a**k
        if coeff:
            out[exps] = coeff
    return out


def power_expansions(cocircuits, r: int) -> list:
    """(e, expansion of a^e) for each cocircuit a, with e = d(a) - 1, each
    over every exponent of its degree."""
    return [(c.degree - 1, dense_power_expansion(c.covector, c.degree - 1, r)) for c in cocircuits]


def _stringify_big_ints(value):
    if type(value) is int and abs(value) >= JSON_INT_LIMIT:
        return str(value)
    if isinstance(value, dict):
        return {k: _stringify_big_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_big_ints(v) for v in value]
    return value


def stdlib_json_bytes(report) -> bytes:
    """The report through the standard library encoder, big integers as strings."""
    return (json.dumps(_stringify_big_ints(report), indent=2, sort_keys=False) + "\n").encode("utf-8")


def macaulay_rows(r: int, expansions, degree: int) -> tuple:
    """(dim Sym_d, rows): every monomial multiple of degree d of each power
    in ``expansions`` (pairs (e, expansion of a^e), as ``power_expansions``
    gives them), over the monomial basis of Sym_d."""
    index = {e: i for i, e in enumerate(exponents_by_compositions(r, degree))}
    rows = []
    for e, expansion in expansions:
        if e > degree:
            continue
        for shift_exps in exponents_by_compositions(r, degree - e):
            row = [0] * len(index)
            for exps, coeff in expansion.items():
                row[index[tuple(a + b for a, b in zip(exps, shift_exps))]] += coeff
            rows.append(row)
    return len(index), rows


def dense_dims(r: int, expansions, bound: int) -> tuple:
    """dim over Q of Sym modulo the powers in ``expansions``, degrees
    0..bound, each from the Bareiss rank of its dense Macaulay matrix."""
    out = []
    for d in range(bound + 1):
        dim, rows = macaulay_rows(r, expansions, d)
        out.append(dim - bareiss_rank(rows))
    return tuple(out)


def dense_quotient_dims(va, bound):
    """dim over Q of Sym modulo the pure cocircuit powers, degrees 0..bound."""
    r = va.lattice_rank
    return dense_dims(r, power_expansions(enumerate_cocircuits(va), r), bound)


def all_degree_redundant_generators(va, bound=None):
    """Indices of cocircuit generators whose removal leaves every quotient
    dimension up to the bound unchanged, each dimension by an exact rank.

    Same arguments and result as ``ideals.redundant_generators``.
    """
    r = va.lattice_rank
    cocircuits = enumerate_cocircuits(va)
    expansions = power_expansions(cocircuits, r)
    if bound is None:
        bound = len(iz_hilbert_series(va, tutte_of_arrangement(va, cocircuits)))
    full = dense_dims(r, expansions, bound)
    return tuple(
        i
        for i in range(len(expansions))
        if dense_dims(r, expansions[:i] + expansions[i + 1 :], bound) == full
    )
