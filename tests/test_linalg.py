from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonoharm.errors import SizeExceededError
from zonoharm.linalg import (
    IntRowLattice,
    Mat,
    det,
    hermite_normal_form,
    integer_kernel,
    kernel_basis,
    rank,
    row_hnf,
    saturation,
    saturation_index,
    smith_divisors,
    solve_row_lattice,
)

HOUSE_COLS = [(1, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1)]


def _minor_gcd_divisors(rows):
    """Independent Smith oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m, n = len(rows), len(rows[0]) if rows else 0

    def minor_det(rsel, csel):
        sub = [[rows[i][j] for j in csel] for i in rsel]
        k = len(sub)
        if k == 0:
            return 1
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            total += (-1) ** j * sub[0][j] * minor_det_sub(sub, j)
        return total

    def minor_det_sub(sub, col):
        rest = [r[:col] + r[col + 1 :] for r in sub[1:]]
        k = len(rest)
        if k == 0:
            return 1
        total = 0
        for j in range(k):
            total += (-1) ** j * rest[0][j] * minor_det_sub(rest, j)
        return total

    prev = 1
    divisors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                g = gcd(g, minor_det(rsel, csel))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


class TestRank:
    def test_identity(self):
        assert rank(Mat.identity(2)) == 2

    def test_zero(self):
        assert rank(Mat.zero(3, 4)) == 0

    def test_house_matrix(self):
        assert rank(Mat.from_cols(HOUSE_COLS, rows=2)) == 2

    def test_fractions(self):
        singular = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])
        assert rank(singular) == 1
        regular = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]])
        assert rank(regular) == 2

    @given(small_matrices)
    @settings(max_examples=60)
    def test_rank_of_transpose(self, rows):
        m = Mat.from_rows(rows)
        assert rank(m) == rank(m.transpose())

    @given(small_matrices)
    @settings(max_examples=60)
    def test_rank_nullity(self, rows):
        m = Mat.from_rows(rows)
        assert m.cols == rank(m) + kernel_basis(m).cols


class TestKernel:
    def test_identity_trivial(self):
        assert kernel_basis(Mat.identity(3)).cols == 0

    def test_one_one(self):
        k = kernel_basis(Mat.from_rows([[1, 1]]))
        assert k.cols == 1
        x, y = k.col(0)
        assert x == -y != 0

    @given(small_matrices)
    @settings(max_examples=40)
    def test_kernel_annihilates(self, rows):
        m = Mat.from_rows(rows)
        k = kernel_basis(m)
        for j in range(k.cols):
            assert all(v == 0 for v in m.matvec(k.col(j)))


class TestHermite:
    def test_diag_2_3_divisors(self):
        hf = hermite_normal_form(Mat.from_rows([[2, 0], [0, 3]]))
        assert hf.elementary_divisors == (1, 6)

    def test_identity_divisors(self):
        hf = hermite_normal_form(Mat.identity(4))
        assert hf.elementary_divisors == (1, 1, 1, 1)

    def test_house_degree_one_evaluation_lattice(self):
        # rows: values of 1, x1, x2 on {1,2,3} x {1,2}; oracle verified the
        # divisors are all 1 (sympy smith_normal_form gives diag(1,1,1))
        pts = [(a, b) for a in (1, 2, 3) for b in (1, 2)]
        rows = [[1] * 6, [p[0] for p in pts], [p[1] for p in pts]]
        hf = hermite_normal_form(Mat.from_rows(rows).transpose())
        assert hf.elementary_divisors == (1, 1, 1)

    def test_smith_cap(self):
        with pytest.raises(SizeExceededError):
            smith_divisors(Mat.identity(65))

    @given(small_matrices)
    @settings(max_examples=50)
    def test_idempotent(self, rows):
        hf = hermite_normal_form(Mat.from_rows(rows))
        again = hermite_normal_form(hf.basis)
        assert again.basis == hf.basis
        assert again.pivots == hf.pivots

    @given(small_matrices)
    @settings(max_examples=40)
    def test_divisors_match_minor_gcd_oracle(self, rows):
        assert smith_divisors(Mat.from_rows(rows)) == _minor_gcd_divisors(rows)

    @given(small_matrices)
    @settings(max_examples=40)
    def test_left_transform(self, rows):
        # U * m * V = diag(d) with V unimodular: row i of U * m is d_i times a
        # row of V^-1 for i < len(d), and zero beyond
        divisors, U = smith_divisors(Mat.from_rows(rows), transform=True)
        assert divisors == smith_divisors(Mat.from_rows(rows))
        assert abs(det(U)) == 1
        um = Mat.from_rows(U).matmul(Mat.from_rows(rows)).row_list()
        for i, row in enumerate(um):
            d = divisors[i] if i < len(divisors) else 0
            assert all(x % d == 0 for x in row) if d else not any(row)

    @given(small_matrices)
    @settings(max_examples=40)
    def test_divisors_match_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        d = smith_normal_form(sympy.Matrix(rows))
        expected = tuple(
            int(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0
        )
        assert smith_divisors(Mat.from_rows(rows)) == expected

    @given(small_matrices)
    @settings(max_examples=40)
    def test_column_lattice_preserved(self, rows):
        m = Mat.from_rows(rows)
        hf = hermite_normal_form(m)
        gens = [tuple(c) for c in m.col_list()]
        basis = [tuple(c) for c in hf.basis.col_list()]
        # mutual membership of generating sets
        for v in basis:
            assert solve_row_lattice(gens, v) is not None
        for v in gens:
            assert solve_row_lattice(basis, v) is not None


class TestSaturation:
    def test_index_two(self):
        assert saturation_index(Mat.from_cols([(2, 0), (0, 1)]), 2) == 2

    def test_index_one(self):
        assert saturation_index(Mat.from_cols([(1, 0), (0, 1)]), 2) == 1

    def test_house_degree_two_lattice_saturated(self):
        # binomial products of degree <= 2 evaluated on {1,2,3} x {1,2}
        pts = [(a, b) for a in (1, 2, 3) for b in (1, 2)]
        from zonoharm.funcspace import binomial_products_up_to

        rows = [[f.evaluate(p) for p in pts] for f in binomial_products_up_to(2, 2)]
        assert saturation_index(Mat.from_rows(rows).transpose(), 6) == 1

    @given(small_matrices)
    @settings(max_examples=40)
    def test_index_one_iff_divisors_one(self, rows):
        m = Mat.from_rows(rows).transpose()
        idx = saturation_index(m, m.rows)
        divisors = smith_divisors(m)
        assert (idx == 1) == all(d == 1 for d in divisors)

    @given(small_matrices)
    @settings(max_examples=40)
    def test_saturation_contains_and_same_span(self, rows):
        m = Mat.from_rows(rows)
        sat = saturation(m)
        assert rank(sat) == rank(m)
        sat_rows = [tuple(c) for c in sat.col_list()]
        for c in m.col_list():
            assert solve_row_lattice(sat_rows, tuple(c)) is not None
        assert saturation_index(sat, m.rows) in (1,) if sat.cols else True


class TestIntegerKernel:
    @given(small_matrices)
    @settings(max_examples=40)
    def test_kernel_is_saturated_and_annihilates(self, rows):
        m = Mat.from_rows(rows)
        k = integer_kernel(m)
        for j in range(k.cols):
            assert all(v == 0 for v in m.matvec(k.col(j)))
        assert k.cols == m.cols - rank(m)
        if k.cols:
            assert saturation_index(k, m.cols) == 1


class TestRowLattice:
    def test_solve_roundtrip(self):
        gens = [(2, 0, 1), (0, 3, 1), (1, 1, 1)]
        target = tuple(2 * a - b + 4 * c for a, b, c in zip(*gens))
        coeffs = solve_row_lattice(gens, target)
        assert coeffs is not None
        rebuilt = [0, 0, 0]
        for q, g in zip(coeffs, gens):
            for i in range(3):
                rebuilt[i] += q * g[i]
        assert tuple(rebuilt) == target

    def test_solve_unsolvable(self):
        assert solve_row_lattice([(2, 0), (0, 2)], (1, 0)) is None

    @given(small_matrices)
    @settings(max_examples=40)
    def test_incremental_matches_batch(self, rows):
        ncols = len(rows[0])
        lat = IntRowLattice(ncols)
        for r in rows:
            lat.add(r)
        batch, _ = row_hnf(rows, ncols)
        assert lat.canonical_rows() == tuple(batch)
        assert lat.rank == rank(Mat.from_rows(rows))
        for r in rows:
            assert lat.contains(r)
