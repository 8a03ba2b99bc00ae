from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import solve_row_lattice
from zonoharm.arrangement import LatticePointSet
from zonoharm.errors import EmptyPointSetError
from zonoharm.funcspace import (
    BinomialProduct,
    Monomial,
    binom_int,
    binomial_product_rows,
    binomial_products_up_to,
    evaluate,
    monomials_up_to,
)
from zonoharm.linalg import Mat, rank

HOUSE_POINTS = LatticePointSet(tuple((a, b) for a in (1, 2, 3) for b in (1, 2)))


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
        assert [m.exponents for m in monomials_up_to(2, 1)] == [(0, 0), (1, 0), (0, 1)]

    def test_monomials_rank1_degree3(self):
        assert [m.exponents for m in monomials_up_to(1, 3)] == [(0,), (1,), (2,), (3,)]

    def test_monomial_count(self):
        assert len(monomials_up_to(2, 2)) == 6

    def test_binomials_rank1_degree2(self):
        assert [b.per_coordinate for b in binomial_products_up_to(1, 2)] == [(0,), (1,), (2,)]

    def test_binomial_value(self):
        assert BinomialProduct((2,)).evaluate((3,)) == 3

    def test_binomial_count(self):
        assert len(binomial_products_up_to(2, 2)) == 6

    def test_same_exponent_order(self):
        monos = [m.exponents for m in monomials_up_to(3, 3)]
        binos = [b.per_coordinate for b in binomial_products_up_to(3, 3)]
        assert monos == binos


class TestEvaluate:
    def test_constant_row(self):
        ev = evaluate([Monomial((0, 0))], HOUSE_POINTS)
        assert ev.values.row(0) == (1,) * 6

    def test_house_degree_one(self):
        ev = evaluate(binomial_products_up_to(2, 1), HOUSE_POINTS)
        assert ev.values.row(0) == (1, 1, 1, 1, 1, 1)
        assert ev.values.row(1) == (1, 1, 2, 2, 3, 3)
        assert ev.values.row(2) == (1, 2, 1, 2, 1, 2)

    def test_shifted_binomial_of_difference(self):
        # C(x1 - x2 + 1, 2) on the six house points, in lexicographic order
        values = tuple(binom_int(p[0] - p[1] + 1, 2) for p in HOUSE_POINTS.points)
        assert values == (0, 0, 1, 0, 3, 1)

    def test_empty_points_rejected(self):
        with pytest.raises(EmptyPointSetError):
            evaluate([Monomial((0,))], LatticePointSet(()))


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
        assert isinstance(BinomialProduct(exps).evaluate(point), int)

    @given(small_points, st.integers(0, 3))
    @settings(max_examples=40)
    def test_spans_agree_over_q(self, pts, d):
        ps = LatticePointSet(tuple(pts))
        mono = evaluate(monomials_up_to(2, d), ps).values
        bino = evaluate(binomial_products_up_to(2, d), ps).values
        stacked = Mat.from_rows(mono.row_list() + bino.row_list(), cols=len(ps))
        assert rank(mono) == rank(bino) == rank(stacked)

    @given(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=40)
    def test_evaluation_is_multiplicative(self, e1, e2):
        f = Monomial(tuple(abs(x) for x in e1[:2]))
        g = Monomial(tuple(abs(x) for x in e2[:2]))
        fg = Monomial(tuple(a + b for a, b in zip(f.exponents, g.exponents)))
        for p in HOUSE_POINTS.points:
            assert fg.evaluate(p) == f.evaluate(p) * g.evaluate(p)

    @given(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda a: any(a)),
        st.integers(0, 3),
    )
    @settings(max_examples=40)
    def test_linear_form_binomial_in_integral_span(self, alpha, m):
        # C(<alpha, x>, m) lies in the Z-span of the coordinate binomial
        # products of total degree <= m; checked on a grid large enough to
        # separate polynomials of per-variable degree <= m
        grid = LatticePointSet(tuple(product(range(m + 1), repeat=2)))
        basis = evaluate(binomial_products_up_to(2, m), grid).values.row_list()
        target = tuple(
            binom_int(alpha[0] * p[0] + alpha[1] * p[1], m) for p in grid.points
        )
        assert solve_row_lattice(basis, target) is not None


class TestTabledRows:
    @given(
        st.integers(0, 3).flatmap(
            lambda r: st.lists(
                st.tuples(*[st.integers(-6, 6)] * r), min_size=0, max_size=6
            ).map(lambda pts: (r, pts))
        ),
        st.integers(0, 7),
    )
    @settings(max_examples=60)
    def test_rows_equal_pointwise_evaluation(self, r_pts, top):
        # coordinates as low as -6 and degrees up to 7, above every coordinate
        r, pts = r_pts
        blocks = binomial_product_rows(pts, r)
        listed = []
        for degree in range(top + 1):
            block = next(blocks)
            assert all(f.degree == degree for f, _ in block)
            for f, row in block:
                assert row == tuple(f.evaluate(p) for p in pts)
            listed.extend(f for f, _ in block)
        assert listed == binomial_products_up_to(r, top)
