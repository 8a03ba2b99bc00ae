from itertools import combinations
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    XgcdRowLattice,
    bareiss_rank,
    canonical_rows,
    echelon_integer_kernel,
    hermite_rows,
    identity,
    matvec,
    pivot_cols,
    pointwise_rows,
    row_hnf,
    row_list,
    saturation_hnf,
    solve_row_lattice,
)
from zonoharm.linalg import (
    IntRowLattice,
    Mat,
    in_row_lattice,
    integer_kernel,
    kernel_step,
    rank,
    saturate,
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

@st.composite
def int_matrices(draw):
    """(ncols, rows): rectangular integer matrices with 0 to 6 rows and
    columns, so 0 x n and n x 0 shapes too, small entries mixed with entries
    past 2^64 of both signs, and zero and repeated rows mixed in."""
    ncols = draw(st.integers(0, 6))
    entries = st.one_of(st.integers(-6, 6), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64)))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    extra = draw(st.lists(st.sampled_from(rows + [[0] * ncols]), max_size=3))
    return ncols, draw(st.permutations(rows + extra))


class TestMat:
    """A ``Mat`` stores its columns: ``data`` is a tuple of column tuples."""

    @given(int_matrices())
    @settings(max_examples=60)
    def test_from_cols_round_trips(self, case):
        nrows, cols = case  # cols columns, each of length nrows
        m = Mat.from_cols(cols, rows=nrows)
        assert (m.rows, m.cols) == (nrows, len(cols))
        assert m.data == tuple(map(tuple, cols))
        assert m.col_list() == [list(c) for c in cols]
        assert [m.col(j) for j in range(m.cols)] == [tuple(c) for c in cols]
        same = Mat.from_cols(map(tuple, cols), rows=nrows)
        assert same == m and hash(same) == hash(m)

    def test_no_columns_keep_their_length(self):
        assert Mat.from_cols([], rows=0) == Mat(0, 0, ())
        assert Mat.from_cols([], rows=3) == Mat(3, 0, ()) != Mat(0, 0, ())


def grid_incidence(n: int) -> list:
    """Vertex-arrow incidence matrix of the n x n grid graph: rank n*n - 1."""
    vs = [(i, j) for i in range(n) for j in range(n)]
    arrows = [((i, j), (i + 1, j)) for i in range(n - 1) for j in range(n)]
    arrows += [((i, j), (i, j + 1)) for i in range(n) for j in range(n - 1)]
    return [[(v == head) - (v == tail) for tail, head in arrows] for v in vs]


def huge_kernel_matrix(n: int = 40) -> list:
    """Rank n - 1; the kernel is spanned by (1, 2**40, 0, ..., 0)."""
    rows = [[0] * n for _ in range(n)]
    rows[0][0], rows[0][1] = 2**40, -1
    for i in range(2, n):
        rows[i][i] = 1
    return rows


P = (1 << 61) - 1  # a 61-bit diagonal entry


class TestRank:
    """``rank`` against the Bareiss reference and sympy."""

    def test_identity(self):
        assert rank(identity(2).data) == 2

    def test_zero(self):
        assert rank([[0] * 4] * 3) == 0
        assert rank(Mat(0, 5, ((),) * 5).data) == rank(Mat(4, 0, ()).data) == 0
        assert rank([]) == rank([[], [], []]) == 0

    @given(int_matrices())
    @settings(max_examples=200)
    def test_matches_bareiss_reference(self, case):
        ncols, rows = case
        expected = bareiss_rank(rows)
        assert rank(Mat.from_cols(rows, rows=ncols).data) == expected
        assert rank(rows) == expected

    def test_house_matrix(self):
        assert rank(Mat.from_cols(HOUSE_COLS, rows=2).data) == 2

    @given(int_matrices())
    @settings(max_examples=100)
    def test_rank_of_transpose(self, case):
        # a column matrix is ranked through its columns, read as rows
        ncols, rows = case
        transposed = [[r[j] for r in rows] for j in range(ncols)]
        assert rank(rows) == rank(transposed) == rank(list(zip(*rows))) == bareiss_rank(rows)

    @given(small_matrices)
    @settings(max_examples=60)
    def test_rank_nullity(self, rows):
        ncols = len(rows[0])
        assert ncols == rank(rows) + len(integer_kernel(rows, ncols))

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (grid_incidence(6), 35),
            ([list(r) for r in zip(*grid_incidence(6))], 35),
            (huge_kernel_matrix(), 39),
            ([[P * (i == j) for j in range(40)] for i in range(40)], 40),
        ],
        ids=["grid", "grid-transposed", "huge-kernel", "P-identity"],
    )
    def test_matches_sympy(self, rows, expected):
        assert rank(rows) == sympy.Matrix(rows).rank() == expected


def lattice_index(rows):
    """Index of the row lattice in its saturation, from the gcd of its maximal minors."""
    return prod(_minor_gcd_divisors(rows))


class TestKernel:
    def test_identity_trivial(self):
        assert integer_kernel(row_list(identity(3)), 3) == ()

    def test_empty_kernel_of_full_rank_rows(self):
        # unimodular and non-unimodular square matrices of full rank
        assert integer_kernel([[2, 1], [1, 1]], 2) == ()
        assert integer_kernel([[2, 0], [0, 3]], 2) == ()

    def test_full_kernel(self):
        eye = tuple(map(tuple, row_list(identity(3))))
        assert integer_kernel([], 3) == eye
        assert integer_kernel([[0, 0, 0], [0, 0, 0]], 3) == eye

    def test_one_one(self):
        assert integer_kernel([[1, 1]], 2) == ((1, -1),)

    def test_kernel_step_drops_one_vector(self):
        assert kernel_step([[1, 0], [0, 1]], (2, 3)) == [[-3, 2]]
        assert kernel_step([[1, 0], [0, 1]], (0, 0)) is None
        assert kernel_step([[1, 0]], (0, 5)) is None
        assert kernel_step([[1, 0]], (5, 0)) == []

    @given(small_matrices)
    @settings(max_examples=60)
    def test_matches_echelon_oracle(self, rows):
        kern = integer_kernel(rows, len(rows[0]))
        assert hermite_rows(kern, pivot_cols(kern)) == echelon_integer_kernel(rows, len(rows[0]))

    @given(small_matrices)
    @settings(max_examples=40)
    def test_kernel_annihilates(self, rows):
        for v in integer_kernel(rows, len(rows[0])):
            assert not any(matvec(rows, v))


class TestHermite:
    # the elementary divisors of a lattice multiply to its index in its
    # saturation; ``saturate`` reads that index off the echelon pivots
    def test_diag_2_3_divisors(self):
        assert saturate([[2, 0], [0, 3]], 2) == (((1, 0), (0, 1)), 6)

    def test_identity_divisors(self):
        eye = tuple(row_list(identity(4)))
        assert saturate(eye, 4) == (tuple(map(tuple, eye)), 1)

    def test_house_degree_one_evaluation_lattice(self):
        # rows: values of 1, x1, x2 on {1,2,3} x {1,2}; oracle verified the
        # divisors are all 1 (sympy smith_normal_form gives diag(1,1,1))
        pts = [(a, b) for a in (1, 2, 3) for b in (1, 2)]
        rows = [[1] * 6, [p[0] for p in pts], [p[1] for p in pts]]
        assert saturate(rows, 6)[1] == 1

    def test_smith_cap(self):
        # no dimension cap: a lattice of dimension 65 and index 2 saturates
        # to all of Z^65
        rows = row_list(identity(65))
        rows[64][64] = 2
        assert saturate(rows, 65) == (tuple(map(tuple, row_list(identity(65)))), 2)

    @given(small_matrices)
    @settings(max_examples=50)
    def test_idempotent(self, rows):
        lat = IntRowLattice(len(rows[0]))
        for r in rows:
            lat.add(r)
        again = IntRowLattice(len(rows[0]))
        for r in canonical_rows(lat):
            again.add(r)
        assert canonical_rows(again) == canonical_rows(lat)
        assert again.pivot_cols == lat.pivot_cols

    @given(small_matrices)
    @settings(max_examples=40)
    def test_divisors_match_minor_gcd_oracle(self, rows):
        assert saturate(rows, len(rows[0]))[1] == lattice_index(rows)

    @given(small_matrices)
    @settings(max_examples=40)
    def test_divisors_match_sympy(self, rows):
        from sympy.matrices.normalforms import smith_normal_form

        d = smith_normal_form(sympy.Matrix(rows))
        expected = prod(int(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0)
        assert saturate(rows, len(rows[0]))[1] == abs(expected)

    @given(small_matrices)
    @settings(max_examples=40)
    def test_column_lattice_preserved(self, rows):
        gens = list(zip(*rows))
        lat = IntRowLattice(len(rows))
        for g in gens:
            lat.add(g)
        basis = canonical_rows(lat)
        # mutual membership of generating sets
        for v in basis:
            assert solve_row_lattice(gens, v) is not None
        for v in gens:
            assert solve_row_lattice(basis, v) is not None


class TestSaturation:
    def test_index_two(self):
        assert saturate([(2, 0), (0, 1)], 2)[1] == 2

    def test_index_one(self):
        assert saturate([(1, 0), (0, 1)], 2)[1] == 1

    def test_house_degree_two_lattice_saturated(self):
        # binomial products of degree <= 2 evaluated on {1,2,3} x {1,2}
        pts = [(a, b) for a in (1, 2, 3) for b in (1, 2)]
        assert saturate(pointwise_rows(2, 2, pts), 6)[1] == 1

    @given(small_matrices)
    @settings(max_examples=40)
    def test_index_one_iff_divisors_one(self, rows):
        lat = IntRowLattice(len(rows[0]))
        for r in rows:
            lat.add(r)
        sat, idx = saturate(rows, len(rows[0]))
        canon = hermite_rows(sat, pivot_cols(sat))
        assert (idx == 1) == (canon == canonical_rows(lat)) == (lattice_index(rows) == 1)

    @given(small_matrices)
    @settings(max_examples=40)
    def test_saturation_contains_and_same_span(self, rows):
        ncols = len(rows[0])
        sat, _ = saturate(rows, ncols)
        canon = hermite_rows(sat, pivot_cols(sat))
        assert list(canon) == saturation_hnf(rows, ncols)
        assert len(sat) == bareiss_rank(rows)
        assert in_row_lattice(sat, pivot_cols(sat), rows)
        # an echelon, with positive pivots at the lattice's own pivot columns
        pivots = IntRowLattice(ncols, rows).pivot_cols
        assert pivot_cols(sat) == tuple(pivots)
        assert all(r[c] > 0 for r, c in zip(sat, pivots))
        again, index = saturate(sat, ncols)
        assert hermite_rows(again, pivot_cols(again)) == canon
        assert index == 1


class TestIntegerKernel:
    @given(small_matrices)
    @settings(max_examples=40)
    def test_kernel_is_saturated_and_annihilates(self, rows):
        ncols = len(rows[0])
        k = integer_kernel(rows, ncols)
        for v in k:
            assert not any(matvec(rows, v))
        assert len(k) == ncols - rank(rows)
        # an echelon: strictly increasing pivot columns, positive pivots
        pivots = pivot_cols(k)
        assert list(pivots) == sorted(set(pivots))
        assert all(r[c] > 0 for r, c in zip(k, pivots))
        sat, index = saturate(k, ncols)
        assert hermite_rows(sat, pivots) == hermite_rows(k, pivots)
        assert index == 1


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
        assert canonical_rows(lat) == tuple(batch)
        assert lat.rank == bareiss_rank(rows)
        assert in_row_lattice(canonical_rows(lat), lat.pivot_cols, rows)
        assert in_row_lattice(lat.rows, lat.pivot_cols, rows)

    @given(
        small_matrices.flatmap(
            lambda rows: st.lists(
                st.one_of(
                    st.sampled_from(rows),  # a duplicate
                    st.just([0] * len(rows[0])),  # a zero row
                    # a multiple of a row, negative ones included: xgcd(2, -4)
                    st.tuples(st.sampled_from(rows), st.sampled_from((-4, -3, -2, -1, 2, 3))).map(
                        lambda rk: [rk[1] * x for x in rk[0]]
                    ),
                ),
                max_size=4,
            ).flatmap(lambda extra: st.permutations(list(rows) + extra))
        )
    )
    @settings(max_examples=80)
    def test_insert_matches_xgcd_reference(self, rows):
        ncols = len(rows[0])
        lat, ref = IntRowLattice(ncols, rows), XgcdRowLattice(ncols, rows)
        assert canonical_rows(lat) == canonical_rows(ref)
        assert lat.pivot_cols == ref.pivot_cols
        assert [r[c] for r, c in zip(lat.rows, lat.pivot_cols)] == [
            r[c] for r, c in zip(ref.rows, ref.pivot_cols)
        ]
        assert lat.rank == ref.rank

    def test_divisible_pivot_keeps_the_stored_row(self):
        lat = IntRowLattice(3, [(2, 1, 0)])
        row = lat.rows[0]
        lat.add((-4, 0, 1))  # -4 = -2 * 2: subtracted, no xgcd step
        assert lat.rows[0] is row
        assert lat.rows == [[2, 1, 0], [0, 2, 1]]
        lat.add((3, 0, 0))  # 2 does not divide 3: the stored row is replaced
        assert lat.rows[0] is not row and row == [2, 1, 0]
        assert canonical_rows(lat) == canonical_rows(XgcdRowLattice(3, [(2, 1, 0), (-4, 0, 1), (3, 0, 0)]))

    @given(small_matrices, st.lists(st.integers(-3, 3), min_size=5, max_size=5), st.integers(0, 4))
    @settings(max_examples=60)
    def test_membership_matches_solver(self, rows, coeffs, bump):
        # integer combinations of the rows, one entry perturbed by 0..4
        ncols = len(rows[0])
        hnf, pivots = row_hnf(rows, ncols)
        lat = IntRowLattice(ncols, rows)
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        v[0] += bump
        expected = solve_row_lattice(rows, v) is not None
        assert in_row_lattice(hnf, pivots, [v]) == expected
        assert in_row_lattice(lat.rows, lat.pivot_cols, [v]) == expected
        assert in_row_lattice(hnf, pivots, [rows[0], v]) == expected
