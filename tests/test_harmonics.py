import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_arrangement, data_path, named_arrangement, wheel_graph
from oracles import (
    eager_filtration,
    hermite_rows,
    matvec,
    pivot_cols,
    row_hnf,
    saturation_hnf,
    solve_row_lattice,
    su2_poincare_polynomial,
)
from strategies import connected_multigraphs
from zonoharm import funcspace, harmonics, linalg
from zonoharm.analysis import CHECKS, Analysis, compute_filtration
from zonoharm.arrangement import VectorArrangement
from zonoharm.errors import ArgumentError, DegreeOverflowError, LoopOrColoopError
from zonoharm.formats import parse_graph
from zonoharm.funcspace import binom_int, binomial_product_rows
from zonoharm.graphs import cographical_arrangement
from zonoharm.harmonics import Harmonics, divided_power, verify_saturation
from zonoharm.linalg import Mat, in_row_lattice, saturate
from zonoharm.report import build_graph_report


def coloop_arrangement():
    return VectorArrangement(2, ("a1", "a2"), Mat.from_cols([(1, 0), (0, 1)], rows=2))


def trim(seq):
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def check_passes(name, ctx):
    (check,) = [c for c in CHECKS if c.name == name]
    return check.passed(check.run(ctx))


def count_calls(monkeypatch, names, modules=(harmonics, linalg)):
    """Record in the returned list each call of the named functions of ``modules``."""
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in names:
        owners = [m for m in modules if hasattr(m, name)]
        assert owners, name
        for module in owners:
            counted(module, name)
    return calls


class TestFiltration:
    def test_house(self, house_arrangement):
        rep = compute_filtration(house_arrangement)
        assert rep.point_count == 6
        assert rep.q_dims == [1, 3, 5, 6]
        assert rep.gr_dims == (1, 2, 2, 1)
        assert rep.saturation_indices == [1, 1, 1, 1]
        assert rep.top_degree == 3

    def test_cycle_four(self):
        rep = compute_filtration(cycle_arrangement(4))
        assert rep.point_count == 3
        assert rep.gr_dims == (1, 1, 1)

    def test_coloop_zeroed(self):
        rep = compute_filtration(coloop_arrangement())
        assert rep.point_count == 0
        assert rep.q_dims == []
        assert rep.gr_dims == ()

    def test_qdims_weakly_increasing(self, house_arrangement):
        rep = compute_filtration(house_arrangement)
        assert all(a <= b for a, b in zip(rep.q_dims, rep.q_dims[1:]))
        assert rep.q_dims[-1] == rep.point_count


class TestCanonicalRowsOnDemand:
    """Each degree keeps its echelon, with the eager filtration's canonical
    rows.  The eager filtration inserts every row of every degree, so the
    inputs where ``Harmonics`` stops a degree at Z^n (all but "even", whose
    pivots are not all 1) show that the stop changes no snapshot.
    ``max_degree`` stops the eager filtration early; the degrees it has are
    compared."""

    @pytest.mark.parametrize(
        "name, max_degree",
        [
            ("house", None),
            ("W4", None),
            ("K33", None),
            ("prism", None),
            ("W5", None),
            ("K5", None),
            ("K33", 2),
            ("even", None),
        ],
    )
    def test_equal_to_eager_rows_at_every_degree(self, name, max_degree):
        if name == "even":  # {0, 2}: degree 1 has index 2 in its saturation
            pts = ((0,), (2,))
        else:
            pts = Analysis(named_arrangement(name)).points
        eager = eager_filtration(pts, len(pts[0]), max_degree)
        h = Harmonics(pts)
        top = len(h.q_dims) if max_degree is None else len(eager)
        assert h.q_dims[:top] == [len(canon) for canon, _, _ in eager]
        assert h.saturation_indices[:top] == [index for _, _, index in eager]
        for i, (canon, sat, _) in enumerate(eager):
            assert hermite_rows(*h.echelon(i)) == canon
            rows, pivots = h.saturated_echelon(i)
            assert pivots == pivot_cols(sat)
            assert in_row_lattice(rows, pivots, sat) and in_row_lattice(sat, pivots, rows)


point_sets = st.integers(1, 3).flatmap(
    lambda r: st.sets(st.tuples(*[st.integers(-3, 3)] * r), max_size=6).map(sorted).map(tuple)
)


class TestDegreeQueries:
    """``q_dim``, ``echelon`` and ``saturated_echelon`` agree at every degree,
    below 0 and past ``top_degree`` included."""

    @staticmethod
    def check(h):
        if not h.point_count:
            assert h.top_degree == 0
        for d in range(-2, h.top_degree + 3):
            assert h.q_dim(d) == len(h.echelon(d)[0])
            if d < 0:
                assert h.q_dim(d) == 0
            if d >= h.top_degree:
                assert h.q_dim(d) == h.point_count
            assert h.saturated_echelon(d)[1] == h.echelon(d)[1]

    @pytest.mark.parametrize("points", [(), ((0,), (2,))], ids=["empty", "even"])
    def test_fixed_point_sets(self, points):
        self.check(Harmonics(points))

    @given(point_sets)
    @settings(max_examples=60)
    def test_point_sets(self, points):
        self.check(Harmonics(points))


class TestRepeatedPoints:
    """Repeated points can never give a lattice of rank n, so the degree loop
    would not end: they are refused up front."""

    @pytest.mark.parametrize(
        "points", [((0,), (0,)), ((1, 2), (0, 0), (1, 2))], ids=["one", "two"]
    )
    def test_rejected(self, points):
        with pytest.raises(ArgumentError, match="distinct"):
            Harmonics(points)


class TestPointShapes:
    """Points of different lengths, with non-integer coordinates or not given
    as tuples are refused up front: the first two inputs would never reach
    Z^n, the third would index past its shorter point, and the fourth cannot
    be hashed for the distinct-points check."""

    @pytest.mark.parametrize(
        "points",
        [((0,), (0, 1)), ((0.5,), (0.7,)), ((0, 1), (0,)), ([0], [1])],
        ids=["longer-after", "fractions", "shorter-after", "lists"],
    )
    def test_rejected(self, points):
        with pytest.raises(ArgumentError, match="integer points of one length"):
            Harmonics(points)


class TestStopAtZn:
    """A degree stops inserting rows once its lattice is Z^n: n rows, all pivots 1."""

    @staticmethod
    def count_adds(monkeypatch):
        counts = [0]
        add = linalg.IntRowLattice.add

        def counted(self, vec):
            counts[0] += 1
            return add(self, vec)

        monkeypatch.setattr(linalg.IntRowLattice, "add", counted)
        return counts

    def test_insert_counts_on_wheel5(self, monkeypatch):
        # W5: 30 points, degrees 0-4 with 1 + 5 + 15 + 35 + 70 = 126 rows;
        # degree 4 reaches Z^30 after 30 of its 70 rows
        g = wheel_graph(5)
        va = cographical_arrangement(g)
        pts = Analysis(va).points
        counts = self.count_adds(monkeypatch)
        h = Harmonics(pts)
        assert h.q_dims == [1, 6, 16, 26, 30]
        assert counts == [86]
        counts[0] = 0
        build_graph_report("", g)
        # 10 of them rank the constructor's 10 columns of length 5, read as
        # rows, and 4 per contraction put the integer kernel of its column in
        # echelon form
        assert counts == [1487]

    def test_rows_built_on_wheel5(self, monkeypatch):
        # each row is built from one step of its degree's table as it is
        # read, so degree 4 builds the 30 rows that reach Z^30, not all 70
        built = Counter()
        parent_steps = funcspace._parent_steps

        def counted(r, d):
            for step in parent_steps(r, d):
                built[d] += 1
                yield step

        monkeypatch.setattr(funcspace, "_parent_steps", counted)
        va = cographical_arrangement(wheel_graph(5))
        h = Harmonics(Analysis(va).points)
        assert h.top_degree == 4
        assert built == {1: 5, 2: 15, 3: 35, 4: 30}

    def test_full_rank_with_a_non_unit_pivot_goes_on(self, monkeypatch):
        # points (0, 0), (2, 1): after 1 and x the degree-1 lattice has rank
        # 2 = n but pivot 2; y is still inserted and makes it Z^2.  A stop at
        # full rank alone would skip y and report index 2
        counts = self.count_adds(monkeypatch)
        h = Harmonics(((0, 0), (2, 1)))
        assert counts == [3]
        assert h.q_dims == [1, 2]
        assert h.saturation_indices == [1, 1]


class TestSaturationVerdict:
    def test_house(self, house_arrangement):
        assert verify_saturation(compute_filtration(house_arrangement))

    def test_cycle_five(self):
        assert verify_saturation(compute_filtration(cycle_arrangement(5)))

    def test_two_point_nonexample_detected(self):
        # {0, 2} in Z is not the interior point set of any unimodular zonotope:
        # the degree-1 evaluation lattice has index 2 in its saturation
        rows = [(1, 1), (0, 2)]  # values of 1 and x on {0, 2}
        assert saturate(rows, 2)[1] == 2

    def test_non_unit_pivot_takes_the_saturate_path(self, monkeypatch):
        # the degree-1 lattice of {0, 2} has canonical rows (1, 1), (0, 2):
        # pivot 2 certifies nothing, so the index comes from ``saturate``
        calls = count_calls(monkeypatch, ("saturate",))
        va = cycle_arrangement(3)
        pts = ((0,), (2,))
        h = Harmonics(pts)
        assert calls == ["saturate"]
        assert [hermite_rows(*h.echelon(i)) for i in (0, 1)] == [((1, 1),), ((1, 1), (0, 2))]
        assert h.saturation_indices == [1, 2]
        assert h.saturated_echelon(1)[0] == ((1, 0), (0, 1))
        # ``saturate``'s rows are an echelon, positive pivots at the lattice's pivot columns
        rows, pivots = h.saturated_echelon(1)
        assert pivots == h.echelon(1)[1] == pivot_cols(rows)
        assert all(r[c] > 0 for r, c in zip(rows, pivots))
        ctx = Analysis(va)
        ctx.points = pts
        assert check_passes("saturation", ctx) is False

    def test_no_dimension_cap_on_the_fallback(self):
        # 65 even points, past any dimension cap: the degree-1 lattice has
        # index 2 in its saturation, which holds the values of z / 2.  The
        # whole filtration on them runs to degree 64, so ``saturate`` is
        # called on the degree-<=1 rows directly; the {0, 2} case above
        # covers the fallback inside ``Harmonics``
        points = tuple((2 * k,) for k in range(65))
        rows = [row for block in islice(binomial_product_rows(points, 1), 2) for row in block]
        sat, index = saturate(rows, 65)
        assert index == 2
        assert tuple(range(65)) in sat

    def test_wheel_certified_without_smith_or_saturation(self, monkeypatch):
        calls = count_calls(monkeypatch, ("saturate",))
        ctx = Analysis(cographical_arrangement(wheel_graph(5)))
        assert ctx.harmonics.saturation_indices == [1] * 5
        for a in ctx.usable:
            assert ctx.deletion_contraction(a).ok
        assert calls == []


class TestHilbertSeries:
    def test_cycle(self):
        for k in range(2, 8):
            assert Analysis(cycle_arrangement(k)).iz == (1,) * (k - 1)

    def test_house(self, house_arrangement):
        assert Analysis(house_arrangement).iz == (1, 2, 2, 1)

    def test_single_coloop_zero(self):
        va = VectorArrangement(1, ("a1",), Mat.from_cols([(1,)], rows=1))
        assert Analysis(va).iz == ()


class TestDividedPower:
    def test_cycle_square(self):
        ctx = compute_filtration(cycle_arrangement(5))
        e = ctx.coordinate_class(0)
        assert e.values == (1, 2, 3, 4)
        e2 = divided_power(ctx, e, 2)
        assert e2.degree == 2
        assert e2.values == tuple(binom_int(z, 2) for z in (1, 2, 3, 4))
        # 2 e^[2] = e^2 in the graded quotient
        diff = tuple(2 * a - b * b for a, b in zip(e2.values, e.values))
        assert solve_row_lattice(ctx.saturated_echelon(1)[0], diff) is not None

    def test_m_one_is_identity(self):
        ctx = compute_filtration(cycle_arrangement(4))
        e = ctx.coordinate_class(0)
        assert divided_power(ctx, e, 1) is e

    def test_m_zero_is_unit(self):
        ctx = compute_filtration(cycle_arrangement(4))
        e = ctx.coordinate_class(0)
        u = divided_power(ctx, e, 0)
        assert u.degree == 0
        assert u.values == (1, 1, 1)

    def test_degree_overflow(self):
        ctx = compute_filtration(cycle_arrangement(4))
        e = ctx.coordinate_class(0)
        with pytest.raises(DegreeOverflowError):
            divided_power(ctx, e, 3)

    def test_law_for_all_admissible_m(self, house_arrangement):
        ctx = compute_filtration(house_arrangement)
        for j in (0, 1):
            e = ctx.coordinate_class(j)
            for m in range(2, ctx.top_degree + 1):
                em = divided_power(ctx, e, m)
                fact = 1
                for i in range(2, m + 1):
                    fact *= i
                diff = tuple(fact * a - b**m for a, b in zip(em.values, e.values))
                assert solve_row_lattice(ctx.saturated_echelon(m - 1)[0], diff) is not None

    def test_square_not_in_plain_subring_for_long_cycles(self):
        # the divided square is not an integer polynomial in the degree-1 class
        for k in (4, 5, 6):
            ctx = compute_filtration(cycle_arrangement(k))
            e = ctx.coordinate_class(0)
            e2 = divided_power(ctx, e, 2)
            gens = list(ctx.saturated_echelon(1)[0]) + [tuple(v * v for v in e.values)]
            assert solve_row_lattice(gens, e2.values) is None

    def test_law_check_fails_on_plain_powers(self, house_arrangement, monkeypatch):
        # with C(n, k) replaced by n**k the "divided power" is e^m itself, and
        # (m! - 1) e^m is not in the lower piece: the check reports, not raises
        ctx = Analysis(house_arrangement)
        assert check_passes("divided_power_law", ctx) is True
        monkeypatch.setattr(harmonics, "binom_int", lambda n, k: n**k)
        assert check_passes("divided_power_law", ctx) is False


class TestDeletionContraction:
    def test_house_element_four(self, house_arrangement):
        rep = Analysis(house_arrangement).deletion_contraction("e4")
        assert rep.ok
        by_degree = {c.degree: c for c in rep.degree_checks}
        assert by_degree[3].dim_total == 6
        assert by_degree[3].dim_contraction == 4
        assert by_degree[3].dim_deletion_prev == 2

    def test_cycle(self):
        for k in (2, 3, 5):
            rep = Analysis(cycle_arrangement(k)).deletion_contraction("a0")
            assert rep.ok
            top = max(c.degree for c in rep.degree_checks)
            final = [c for c in rep.degree_checks if c.degree == top][0]
            assert final.dim_total == k - 1
            assert final.dim_contraction == 1
            assert final.dim_deletion_prev == k - 2

    def test_triangle_cographical(self):
        rep = Analysis(cycle_arrangement(3)).deletion_contraction("a1")
        top = max(c.degree for c in rep.degree_checks)
        final = [c for c in rep.degree_checks if c.degree == top][0]
        assert (final.dim_total, final.dim_contraction, final.dim_deletion_prev) == (2, 1, 1)

    def test_rejects_loop_or_coloop(self):
        va = VectorArrangement(1, ("a1", "a2"), Mat.from_cols([(1,), (0,)], rows=1))
        with pytest.raises(LoopOrColoopError):
            Analysis(va).deletion_contraction("a1")
        with pytest.raises(LoopOrColoopError):
            Analysis(va).deletion_contraction("a2")


def rees_data(h):
    """(i, rows) per degree: a basis of the saturated degree-<=i lattice, the
    Rees-algebra data of the filtration with weight i at degree i."""
    return [(i, h.saturated_echelon(i)[0]) for i in range(h.top_degree + 1)]


class TestReesData:
    def test_house_ranks(self, house_arrangement):
        data = rees_data(compute_filtration(house_arrangement))
        assert [(i, len(rows)) for i, rows in data] == [(0, 1), (1, 3), (2, 5), (3, 6)]

    def test_single_point(self):
        va = VectorArrangement(0, ("a1",), Mat(0, 1, ((),)))
        data = rees_data(compute_filtration(va))
        assert [(i, len(rows)) for i, rows in data] == [(0, 1)]

    def test_cycle_three(self):
        data = rees_data(compute_filtration(cycle_arrangement(3)))
        assert [(i, len(rows)) for i, rows in data] == [(0, 1), (1, 2)]

    def test_bases_are_saturated(self, house_arrangement):
        for _, rows in rees_data(compute_filtration(house_arrangement)):
            assert saturate(rows, 6)[1] == 1


@pytest.fixture(scope="module")
def wheel7():
    """Analysis context of the cycle-space arrangement of the wheel W7."""
    return Analysis(cographical_arrangement(parse_graph(data_path("wheel7.graph").read_text())))


class TestWheel7:
    def test_filtration_without_smith(self, wheel7, monkeypatch):
        calls = count_calls(monkeypatch, ("saturate",))
        rep = compute_filtration(wheel7.va)
        assert rep.point_count == 126
        assert rep.gr_dims == (1, 7, 21, 35, 35, 21, 6)
        assert calls == []

    def test_divided_power_checks_without_smith(self, wheel7, monkeypatch):
        calls = count_calls(monkeypatch, ("saturate",))
        assert check_passes("divided_power_law", wheel7) is True
        assert calls == []


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


class TestInvariants:
    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_graded_dims_match_tutte_and_su2(self, g):
        va = cographical_arrangement(g)
        rep = compute_filtration(va)
        assert trim(rep.gr_dims) == trim(Analysis(va).iz)
        assert trim(rep.gr_dims) == trim(su2_poincare_polynomial(g))
        assert sum(rep.gr_dims) == rep.point_count

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_saturation_everywhere(self, g):
        rep = compute_filtration(cographical_arrangement(g))
        assert all(ix == 1 for ix in rep.saturation_indices)

    @given(connected_multigraphs(max_edges=7))
    @settings(max_examples=30)
    def test_saturated_rows_equal_saturation(self, g):
        h = compute_filtration(cographical_arrangement(g))
        n = h.point_count
        for i in range(len(h.q_dims)):
            sat = h.saturated_echelon(i)[0]
            assert row_hnf(sat, n)[0] == saturation_hnf(h.echelon(i)[0], n)

    @given(connected_multigraphs(max_edges=5))
    @settings(max_examples=15)
    def test_base_change_invariance(self, g):
        va = cographical_arrangement(g)
        if va.lattice_rank == 0:
            return
        rng = random.Random(5)
        u = _random_unimodular(rng, va.lattice_rank)
        changed = VectorArrangement(
            va.lattice_rank,
            va.ground,
            Mat.from_cols([matvec(u, c) for c in va.columns.col_list()], rows=va.lattice_rank),
        )
        a, b = compute_filtration(va), compute_filtration(changed)
        assert a.point_count == b.point_count
        assert a.q_dims == b.q_dims
        assert a.gr_dims == b.gr_dims
        assert a.saturation_indices == b.saturation_indices
