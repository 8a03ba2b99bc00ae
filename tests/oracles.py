"""Brute-force reference computations that tests compare the library against."""

from itertools import combinations, islice

from zonoharm.funcspace import binomial_product_rows
from zonoharm.linalg import Mat, det, rank, row_hnf


def violating_minor(va):
    """First square subdeterminant of the literal column matrix outside {-1, 0, 1}, or None.

    Returns (row_indices, ground_labels, determinant).  This tests total
    unimodularity of the matrix as written, which depends on the lattice
    basis; the library's own test (``enumerate_cocircuits``) does not.
    """
    r, n = va.lattice_rank, va.size
    rows = va.columns.row_list()
    for k in range(1, min(r, n) + 1):
        for rsel in combinations(range(r), k):
            for csel in combinations(range(n), k):
                d = det([[rows[i][j] for j in csel] for i in rsel])
                if d not in (-1, 0, 1):
                    return rsel, tuple(va.ground[j] for j in csel), d
    return None


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
    blocks = binomial_product_rows(h.points.points, h.va.lattice_rank)
    return [row for block in islice(blocks, min(degree, h.top_degree) + 1) for _, row in block]


def exactness_on_eval_rows(ctx, ctx_del, ctx_con, element, bars):
    """The deletion/contraction exactness ranks on every binomial-product
    evaluation row of each filtered piece, not only on a basis of it.

    Same arguments and verdict as ``analysis._exactness_ranks``.
    """
    h, h_del, h_con = ctx.full_harmonics, ctx_del.harmonics, ctx_con.harmonics
    col = ctx.va.column(element)
    index = ctx.points.index_map()
    shift_idx = []
    for z in ctx_del.points.points:
        zs = tuple(a + b for a, b in zip(z, col))
        if z not in index or zs not in index:
            return False
        shift_idx.append((index[z], index[zs]))
    con_index = ctx_con.points.index_map()
    if any(zbar not in con_index for zbar in bars):
        return False
    bar_idx = [con_index[zbar] for zbar in bars]

    n = h.point_count
    m = len(ctx_del.points)
    for i in range(max(h.top_degree, h_con.top_degree, h_del.top_degree + 1) + 1):
        rows = eval_rows_up_to(h, i)
        xi_rows = [tuple(f[bar_idx[k]] for k in range(n)) for f in eval_rows_up_to(h_con, i)]
        if rank(Mat.from_rows(xi_rows, cols=n)) != h_con.q_dim(i):
            return False
        if rank(Mat.from_rows(list(rows) + xi_rows, cols=n)) != h.q_dim(i):
            return False
        d_rows = [tuple(f[b] - f[a] for a, b in shift_idx) for f in rows]
        if m:
            rows_del = eval_rows_up_to(h_del, i - 1)
            if rank(Mat.from_rows(d_rows, cols=m)) != h_del.q_dim(i - 1):
                return False
            if rank(Mat.from_rows(list(rows_del) + d_rows, cols=m)) != h_del.q_dim(i - 1):
                return False
            if any(f[b] - f[a] for f in xi_rows for a, b in shift_idx):
                return False
        if h.q_dim(i) != h_con.q_dim(i) + h_del.q_dim(i - 1):
            return False
    return True
