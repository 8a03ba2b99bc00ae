"""Brute-force reference computations that tests compare the library against."""

from itertools import combinations

from zonoharm.linalg import det


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
