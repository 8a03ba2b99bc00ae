from itertools import chain, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binomial_product_value,
    exponents_by_compositions,
    monomial_value,
    parent_steps_by_position,
    pointwise_rows,
    solve_row_lattice,
)
from zonoharm import funcspace
from zonoharm.funcspace import binom_int, binomial_product_rows, exponents_of_degree
from zonoharm.linalg import rank

HOUSE_POINTS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2))


def exponents_up_to(r, d):
    return list(chain.from_iterable(exponents_of_degree(r, k) for k in range(d + 1)))


def rows_up_to(points, r, d):
    """Evaluation rows of every binomial product of degree <= d, from the tables."""
    return list(chain.from_iterable(islice(binomial_product_rows(points, r), d + 1)))


class TestBinomInt:
    def test_small(self):
        assert binom_int(3, 2) == 3
        assert binom_int(5, 0) == 1
        assert binom_int(2, 5) == 0

    def test_negative_upper(self):
        assert binom_int(-1, 3) == -1
        assert binom_int(-2, 2) == 3

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            binom_int(4, -1)


class TestBases:
    def test_monomials_rank2_degree1(self):
        assert exponents_up_to(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_monomials_rank1_degree3(self):
        assert exponents_up_to(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_monomial_count(self):
        assert len(exponents_up_to(2, 2)) == 6

    def test_binomials_rank1_degree2(self):
        # C(x, 0), C(x, 1), C(x, 2) on x = 0, 1, 2, 3
        pts = [(0,), (1,), (2,), (3,)]
        assert rows_up_to(pts, 1, 2) == [(1, 1, 1, 1), (0, 1, 2, 3), (0, 0, 1, 3)]

    def test_binomial_value(self):
        assert rows_up_to([(3,)], 1, 2)[2] == (3,)

    def test_binomial_count(self):
        assert len(rows_up_to(HOUSE_POINTS, 2, 2)) == 6

    def test_same_exponent_order(self):
        # graded, then descending-lex within a degree; each exponent once
        exps = exponents_up_to(3, 3)
        assert exps == sorted(exps, key=lambda e: (sum(e), tuple(-x for x in e)))
        assert set(exps) == {e for e in product(range(4), repeat=3) if sum(e) <= 3}
        assert len(exps) == len(set(exps))

    def test_recursion_matches_compositions(self):
        # the recursive exponent tables, and the parent steps listed child by
        # child, equal the composition-and-sort reference
        for r in range(8):
            for d in range(9):
                assert exponents_of_degree(r, d) == exponents_by_compositions(r, d)
                if d:
                    assert funcspace._parent_steps(r, d) == parent_steps_by_position(r, d)


class TestEvaluate:
    def test_constant_row(self):
        assert list(next(binomial_product_rows(HOUSE_POINTS, 2))) == [(1,) * 6]

    def test_house_degree_one(self):
        rows = rows_up_to(HOUSE_POINTS, 2, 1)
        assert rows[0] == (1, 1, 1, 1, 1, 1)
        assert rows[1] == (1, 1, 2, 2, 3, 3)
        assert rows[2] == (1, 2, 1, 2, 1, 2)

    def test_shifted_binomial_of_difference(self):
        # C(x1 - x2 + 1, 2) on the six house points, in lexicographic order
        values = tuple(binom_int(p[0] - p[1] + 1, 2) for p in HOUSE_POINTS)
        assert values == (0, 0, 1, 0, 3, 1)


small_points = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=6, unique=True
)


class TestProperties:
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    )
    @settings(max_examples=80)
    def test_binomial_products_integer_valued(self, exps, point):
        rows = rows_up_to([point], 2, sum(exps))
        (value,) = rows[exponents_up_to(2, sum(exps)).index(exps)]
        assert isinstance(value, int)
        assert value == binomial_product_value(exps, point)

    @given(small_points, st.integers(0, 3))
    @settings(max_examples=40)
    def test_spans_agree_over_q(self, pts, d):
        ps = tuple(pts)
        mono = pointwise_rows(2, d, ps, value=monomial_value)
        bino = rows_up_to(ps, 2, d)
        n = len(ps)
        assert all(len(row) == n for row in mono + bino)
        assert rank(mono) == rank(bino) == rank(mono + bino)

    @given(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=40)
    def test_evaluation_is_multiplicative(self, e1, e2):
        # on disjoint coordinates, the row of a product of binomial products
        # is the entrywise product of their rows
        a, b = abs(e1[0]), abs(e2[1])
        exps = exponents_up_to(2, a + b)
        rows = rows_up_to(HOUSE_POINTS, 2, a + b)
        f, g, fg = (rows[exps.index(e)] for e in ((a, 0), (0, b), (a, b)))
        assert fg == tuple(x * y for x, y in zip(f, g))

    @given(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda a: any(a)),
        st.integers(0, 3),
    )
    @settings(max_examples=40)
    def test_linear_form_binomial_in_integral_span(self, alpha, m):
        # C(<alpha, x>, m) lies in the Z-span of the coordinate binomial
        # products of total degree <= m; checked on a grid large enough to
        # separate polynomials of per-variable degree <= m
        grid = tuple(product(range(m + 1), repeat=2))
        basis = rows_up_to(grid, 2, m)
        target = tuple(binom_int(alpha[0] * p[0] + alpha[1] * p[1], m) for p in grid)
        assert solve_row_lattice(basis, target) is not None


# a rank r <= 3 and up to 6 points with coordinates in [-6, 6]
POINT_SETS = st.integers(0, 3).flatmap(
    lambda r: st.lists(st.tuples(*[st.integers(-6, 6)] * r), min_size=0, max_size=6).map(
        lambda pts: (r, pts)
    )
)


def pointwise_block(r, degree, pts):
    """The rows of one degree, each evaluated point by point."""
    return [tuple(row) for row in pointwise_rows(r, degree, pts)[len(exponents_up_to(r, degree - 1)) :]]


class TestTabledRows:
    @given(POINT_SETS, st.integers(0, 7))
    @settings(max_examples=60)
    def test_rows_equal_pointwise_evaluation(self, r_pts, top):
        # coordinates as low as -6 and degrees up to 7, above every coordinate
        r, pts = r_pts
        blocks = binomial_product_rows(pts, r)
        for degree in range(top + 1):
            assert list(next(blocks)) == pointwise_block(r, degree, pts)

    @given(POINT_SETS, st.integers(1, 5), st.integers(0, 3))
    @settings(max_examples=60)
    def test_a_degree_read_in_part_still_builds_the_next(self, r_pts, top, take):
        # only the first ``take`` rows of each degree below ``top`` are read
        # before the next degree is asked for; all of ``top`` is read, and
        # its rows are built from every row of the degree below
        r, pts = r_pts
        blocks = binomial_product_rows(pts, r)
        for degree in range(top):
            assert list(islice(next(blocks), take)) == pointwise_block(r, degree, pts)[:take]
        assert list(next(blocks)) == pointwise_block(r, top, pts)
