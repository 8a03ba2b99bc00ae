"""The analysis context computes each quantity once; exactness matches its rank oracle."""

import cProfile
import json
import pstats
import random
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, data_path, wheel_graph
from oracles import (
    assert_quotient_map,
    contraction_data,
    echelon_integer_kernel,
    exactness_on_eval_rows,
    exactness_ranks_on_eval_rows,
    matvec,
    row_list,
    signed_incidence,
)
from strategies import connected_multigraphs, sheared_arrangements
from zonoharm import analysis
from zonoharm.analysis import (
    Analysis,
    DeletionContractionReport,
    _deletion_contraction,
    _positions,
    _tutte_duality,
)
from zonoharm.arrangement import VectorArrangement, certify_pairings, enumerate_cocircuits
from zonoharm.cli import EXIT_VERIFY, main
from zonoharm.errors import LoopOrColoopError
from zonoharm.formats import parse_graph
from zonoharm.graphs import (
    Arrow,
    DirectedGraph,
    _binary_tutte,
    cographical_arrangement,
    spanning_forest,
    tutte_of_arrangement,
)
from zonoharm.harmonics import Harmonics, verify_saturation
from zonoharm.ideals import verify_vanishing
from zonoharm.linalg import Mat, rank, saturate
from zonoharm.report import build_graph_report, build_report
from zonoharm.verification import random_connected_multigraph, run_instance_checks


def _key(fn) -> tuple:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _calls(stats: pstats.Stats, fn, caller=None) -> int:
    """Calls of ``fn``; with ``caller``, only the calls made from that function."""
    entry = stats.stats.get(_key(fn))
    if entry is None:
        return 0
    if caller is None:
        return entry[1]
    return entry[4].get(_key(caller), (0,))[0]


@pytest.mark.parametrize(
    "run",
    [
        lambda g: build_graph_report("", g),
        run_instance_checks,
    ],
    ids=["build_graph_report", "run_instance_checks"],
)
def test_each_quantity_once_per_arrangement(run):
    g = complete_graph(4)
    ctx = Analysis(cographical_arrangement(g))
    u = len(ctx.usable)
    assert u == 6
    assert ctx.harmonics.q_dims == [1, 4, 6]
    prof = cProfile.Profile()
    prof.runcall(run, g)
    stats = pstats.Stats(prof)
    # one filtration for the arrangement and one per minor; nothing rebuilt,
    # and the minors' cocircuits are derived from the arrangement's
    assert _calls(stats, Harmonics.__init__) == 1 + 2 * u
    # every check reads echelons, and every degree of K4's filtration and of
    # its minors' has unit pivots, so no saturation is computed
    assert _calls(stats, saturate) == 0
    assert _calls(stats, enumerate_cocircuits) == 1
    # one point index for the arrangement, read by every element's check,
    # and one for each contraction; the deletions need none
    assert _calls(stats, Analysis.point_index.func) == 1 + u
    # one deletion-contraction: the graph's polynomial is the arrangement's,
    # swapped, and one duality certificate, read by both Tutte checks
    assert _calls(stats, tutte_of_arrangement) == 1
    assert _calls(stats, _binary_tutte) == 1
    # one forest for the coordinates and one per context, read by the
    # cycles, the duality certificate and the report's graph rank
    assert _calls(stats, spanning_forest) == 2
    # the arrangement's own rank and no other: its cocircuits certify that
    # each minor spans, so Analysis.minors builds both minors without one
    assert _calls(stats, rank) == 1
    # only the generatorsVanish check reads the vanishing verdict
    assert _calls(stats, verify_vanishing) == 1


def _dims_identity(h: Harmonics, h_del: Harmonics, h_con: Harmonics, degrees) -> bool:
    """dim_i = dim_i(contraction) + dim_{i-1}(deletion) at each of ``degrees``."""
    return all(h.q_dim(i) == h_con.q_dim(i) + h_del.q_dim(i - 1) for i in degrees)


def _exactness_both_ways(ctx: Analysis, element) -> tuple:
    """The report's exactness verdict and the oracle's, on every evaluation row."""
    ctx_del, ctx_con, bars = ctx.minors(element)
    return (
        ctx.deletion_contraction(element).exactness_ok,
        exactness_on_eval_rows(ctx, ctx_del, ctx_con, element, bars),
    )


def _graph_contexts():
    for name in ("cycle4", "house", "selfloop", "theta"):
        yield name, Analysis(cographical_arrangement(parse_graph(data_path(f"{name}.graph").read_text())))
    yield "K4", Analysis(cographical_arrangement(complete_graph(4)))
    yield "W4", Analysis(cographical_arrangement(wheel_graph(4)))
    rng = random.Random(1)
    for i in range(12):
        yield f"suite{i}", Analysis(cographical_arrangement(random_connected_multigraph(rng, 9)))


def test_exactness_on_basis_rows_matches_all_rows():
    # the report's verdict (dims, positions and cover) against the ranks on
    # every evaluation row
    checked = 0
    for name, ctx in _graph_contexts():
        if not ctx.points:
            continue
        for a in ctx.usable:
            assert _exactness_both_ways(ctx, a) == (True, True), (name, a)
            checked += 1
    assert checked >= 40


def test_exactness_fails_on_swapped_bars(house_graph):
    # two points with different images in the contraction trade images: the
    # pullback no longer factors through the quotient, so the oracle's
    # exactness fails; ``test_arrangement.assert_minors_validated`` pins the
    # report's bars to Qz
    ctx = Analysis(cographical_arrangement(house_graph))
    assert len(ctx.usable) == 6
    for a in ctx.usable:
        ctx_del, ctx_con, bars = ctx.minors(a)
        k = next(k for k in range(1, len(bars)) if bars[k] != bars[0])
        swapped = [bars[k], *bars[1:k], bars[0], *bars[k + 1 :]]
        assert _exactness_both_ways(ctx, a) == (True, True)
        assert not exactness_on_eval_rows(ctx, ctx_del, ctx_con, a, swapped)


def test_exactness_fails_on_bars_not_constant_along_the_element():
    # the 7 points are symmetric under swapping the coordinates, so the bars
    # of the swapped point, Q (z1, z0), factor through an affine
    # bijection and pass every rank check; they are not constant along the
    # element's direction, which only the composite-vanishing test sees
    cols = [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)]
    va = VectorArrangement(2, tuple(f"e{i}" for i in range(6)), Mat.from_cols(cols, rows=2))
    ctx = Analysis(va)
    assert len(ctx.points) == 7
    for a in ("e0", "e1", "e2", "e3"):
        _, quotient = contraction_data(va, a)
        twisted = [matvec(quotient, (z[1], z[0])) for z in ctx.points]
        ctx_del, ctx_con, _ = ctx.minors(a)
        assert _exactness_both_ways(ctx, a) == (True, True)
        assert not exactness_on_eval_rows(ctx, ctx_del, ctx_con, a, twisted)


def test_dims_fail_on_a_parent_piece_one_too_large(monkeypatch, capsys):
    # each parent piece one larger than the two images' ranks add up to:
    # the identity fails, and exactness, which includes it, fails with it
    minors = Analysis.minors

    def inflated(self, a):
        dim = Harmonics.q_dim.__get__(self.harmonics)
        self.harmonics.q_dim = lambda i: dim(i) + 1  # shadows the method
        return minors(self, a)

    monkeypatch.setattr(Analysis, "minors", inflated)
    path = str(data_path("house.graph"))
    assert main(["analyze-graph", path, "--json"]) == EXIT_VERIFY == 4
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [r["dims"] for r in checks["deletionContraction"]] == [False] * 6
    assert [r["exactness"] for r in checks["deletionContraction"]] == [False] * 6
    assert all(v is True for k, v in checks.items() if k != "deletionContraction")
    assert main(["analyze-graph", path]) == EXIT_VERIFY
    assert capsys.readouterr().out.count("(bijection ok, dims FAIL, exactness FAIL)") == 6


@given(
    st.one_of(
        connected_multigraphs(max_edges=7).map(cographical_arrangement),
        sheared_arrangements(max_edges=7),
    )
)
@settings(max_examples=40, deadline=None)
def test_dims_and_exactness_match_their_oracles(va):
    # dims read through degree top + 1, which adds nothing, and exactness
    # on every evaluation row, with its own identity check
    ctx = Analysis(va)
    for a in ctx.usable:
        report = ctx.deletion_contraction(a)
        ctx_del, ctx_con, bars = ctx.minors(a)
        h, h_del, h_con = ctx.harmonics, ctx_del.harmonics, ctx_con.harmonics
        top = max(h.top_degree, h_con.top_degree, h_del.top_degree + 1)
        assert report.dims_ok == _dims_identity(h, h_del, h_con, range(top + 2))
        assert report.exactness_ok == exactness_on_eval_rows(ctx, ctx_del, ctx_con, a, bars)


def _shift_deletion(ctx_del: Analysis, ctx_con: Analysis, bars, col):
    """The deletion's points moved by the element's column: each lands on a
    parent point, but a shifted one moved again leaves the parent's points."""
    ctx_del.points = tuple(tuple(x + c for x, c in zip(z, col)) for z in ctx_del.points)
    return ctx_del, ctx_con, bars


def _bar_off_the_contraction(ctx_del: Analysis, ctx_con: Analysis, bars, col):
    """The first bar moved off the contraction's points."""
    off = tuple(1 + max(z[j] for z in ctx_con.points) for j in range(len(bars[0])))
    return ctx_del, ctx_con, [off, *bars[1:]]


def _point_no_bar_hits(ctx_del: Analysis, ctx_con: Analysis, bars, col):
    """One contraction point more, added after its filtration was built,
    that is the bar of no parent point."""
    assert ctx_con.harmonics.point_count == len(ctx_con.points) > 0
    off = tuple(1 + max(z[j] for z in ctx_con.points) for j in range(len(bars[0])))
    ctx_con.points = (*ctx_con.points, off)
    return ctx_del, ctx_con, bars


@pytest.mark.parametrize(
    "fault",
    [_shift_deletion, _bar_off_the_contraction, _point_no_bar_hits],
    ids=["shifted-deletion", "bar-off", "uncovered"],
)
def test_a_point_without_a_position_fails_exactness(monkeypatch, fault):
    # the test of the points: a deletion point z + chi(a) or a bar that is
    # not a point of its arrangement leaves a map undefined, and a
    # contraction point that no bar hits leaves the pullback not injective
    # at the top degree, where every function on those points is in the
    # piece; the dimensions still agree
    ctx = Analysis(cographical_arrangement(wheel_graph(4)))
    assert len(ctx.usable) == 8
    minors = Analysis.minors
    monkeypatch.setattr(
        Analysis,
        "minors",
        lambda self, a: fault(*minors(self, a), self.va.column(a)),
    )
    for a in ctx.usable:
        rep = ctx.deletion_contraction(a)
        assert rep.dims_ok and not rep.exactness_ok, a


def _point_set_triple(rng: random.Random) -> tuple:
    """Seeded point sets P, D and C of no arrangement, with the maps of the
    deletion/contraction sequence defined: a primitive a, P some points of
    [-3, 3]^r and the translates by a of half of them, D a subset of the z
    in P with z + a in P, and C = Q(P), one time in five with one more
    point.  Returns the three filtrations, the positions (``shift_idx``,
    ``bar_idx``) and whether C = Q(P)."""
    r = rng.randint(2, 3)
    a = (0,) * r
    while gcd(*a) != 1:
        a = tuple(rng.randint(-2, 2) for _ in range(r))
    cube = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(2, 7))]
    points = tuple(sorted({*cube, *(tuple(map(add, z, a)) for z in cube[::2])}))
    quotient = echelon_integer_kernel([a], r)
    assert_quotient_map(quotient, a)
    index = {z: k for k, z in enumerate(points)}
    shiftable = [z for z in points if tuple(map(add, z, a)) in index]
    deleted = tuple(sorted(rng.sample(shiftable, rng.randint(0, len(shiftable)))))
    bars = [matvec(quotient, z) for z in points]
    contracted = sorted(set(bars))
    covered = rng.random() >= 0.2
    if not covered:
        contracted.append(tuple(1 + max(z[j] for z in contracted) for j in range(r - 1)))
    con_index = {z: k for k, z in enumerate(contracted)}
    shift_idx = [(index[z], index[tuple(map(add, z, a))]) for z in deleted]
    bar_idx = [con_index[zbar] for zbar in bars]
    hs = Harmonics(points), Harmonics(deleted), Harmonics(tuple(contracted))
    return hs, shift_idx, bar_idx, covered


def test_exactness_ranks_hold_on_point_sets_of_no_arrangement():
    # the ends and the composite of the sequence hold on any finite point
    # sets once every map is defined, except injectivity at the top degree,
    # which holds iff the bars cover C (``Analysis.deletion_contraction``,
    # steps 1-6), so exactness reads dims and that cover alone; most of
    # these sets have an unsaturated lattice, which no arrangement's has
    rng = random.Random(40)
    unsaturated = covers = shifts = 0
    for _ in range(300):
        hs, shift_idx, bar_idx, covered = _point_set_triple(rng)
        assert exactness_ranks_on_eval_rows(*hs, shift_idx, bar_idx) == covered
        unsaturated += not all(map(verify_saturation, hs))
        covers += covered
        shifts += bool(shift_idx)
    assert unsaturated > 200 and shifts > 150 and 200 < covers < 280


class TestExactnessOnEveryElement:
    """The report and the suite test exactness on every usable element: a
    fault on the house's last one fails both."""

    @pytest.fixture()
    def last(self, monkeypatch, house_graph):
        """The house's last usable element, one of whose shifted deletion
        points z + chi(a) now has no position among the parent's points."""
        last = Analysis(cographical_arrangement(house_graph)).usable[-1]
        positions = analysis._positions

        def faulty(ctx, ctx_del, ctx_con, element, bars):
            del_idx, shifted_idx, bar_idx = positions(ctx, ctx_del, ctx_con, element, bars)
            if element == last:
                shifted_idx[-1] = None
            return del_idx, shifted_idx, bar_idx

        monkeypatch.setattr(analysis, "_positions", faulty)
        return last

    def test_report_fails(self, last, house_graph, capsys):
        report = build_graph_report("", house_graph)
        records = report["checks"]["deletionContraction"]
        assert len(records) == 6
        assert {r["element"]: r["exactness"] for r in records} == {
            r["element"]: r["element"] != last for r in records
        }
        assert report["pass"] is False
        assert main(["analyze-graph", str(data_path("house.graph"))]) == EXIT_VERIFY
        assert f"delete/contract {last:<6} FAIL (bijection ok, dims ok, exactness FAIL)" in (
            capsys.readouterr().out
        )

    def test_suite_instance_fails(self, last, house_graph):
        checks = run_instance_checks(house_graph)
        assert [name for name, ok in checks.items() if not ok] == ["deletion_contraction"]


def test_bijection_fails_without_a_contraction_point(monkeypatch, capsys):
    # each contraction loses its last point, which a bar of a point outside
    # the deletion still hits: the bars no longer map onto its points
    minors = Analysis.minors

    def dropped(self, a):
        ctx_del, ctx_con, bars = minors(self, a)
        ctx_con.points = ctx_con.points[:-1]
        return ctx_del, ctx_con, bars

    monkeypatch.setattr(Analysis, "minors", dropped)
    path = str(data_path("house.graph"))
    assert main(["analyze-graph", path, "--json"]) == EXIT_VERIFY
    records = json.loads(capsys.readouterr().out)["checks"]["deletionContraction"]
    assert [r["bijection"] for r in records] == [False] * 6
    assert main(["analyze-graph", path]) == EXIT_VERIFY
    assert capsys.readouterr().out.count("(bijection FAIL,") == 6


def _report_from_minors(ctx: Analysis, a) -> DeletionContractionReport:
    """The deletion/contraction report assembled from ``ctx.minors(a)``, for
    a parent with a coloop, after checking that both minors are empty."""
    ctx_del, ctx_con, bars = ctx.minors(a)
    certify_pairings(ctx_del.va, ctx_del.cocircuits)
    certify_pairings(ctx_con.va, ctx_con.cocircuits)
    assert ctx.points == ctx_del.points == ctx_con.points == () == tuple(bars)
    # each top degree is 0 and its piece zero: every q_dim of the three is 0
    hs = (ctx.harmonics, ctx_del.harmonics, ctx_con.harmonics)
    assert [(h.top_degree, h.q_dim(0)) for h in hs] == [(0, 0)] * 3
    exactness = exactness_on_eval_rows(ctx, ctx_del, ctx_con, a, bars)
    return DeletionContractionReport(a, True, True, exactness)


def _data_graph(name: str) -> DirectedGraph:
    return parse_graph(data_path(f"{name}.graph").read_text())


def _with_self_loop(g: DirectedGraph) -> DirectedGraph:
    """``g`` plus one self-loop arrow, a coloop of its cographical arrangement."""
    v = g.vertices[0]
    return DirectedGraph(g.vertices, (*g.arrows, Arrow(len(g.arrows) + 1, v, v)))


class TestColoopParent:
    """A parent with a coloop reports its deletion/contraction checks without minors."""

    @staticmethod
    def assert_shortcut_equals_minors(va):
        ctx = Analysis(va)
        assert ctx.loops_and_coloops[1]
        for a in ctx.usable:
            report = ctx.deletion_contraction(a)
            assert report == _report_from_minors(ctx, a)
            assert report.ok

    @given(connected_multigraphs(max_edges=7))
    @settings(max_examples=40, deadline=None)
    def test_shortcut_equals_the_minors(self, g):
        self.assert_shortcut_equals_minors(cographical_arrangement(_with_self_loop(g)))

    @given(
        st.one_of(
            connected_multigraphs(max_edges=7).map(cographical_arrangement),
            sheared_arrangements(max_edges=7),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_a_parent_without_a_coloop_has_a_point(self, va):
        # each coloop is a factor x of T, and without one T(0, 1) >= 1, which
        # counts the interior points: every parent past the coloop branch
        # has a point, so deletion_contraction needs no empty-set guard
        ctx = Analysis(va)
        no_coloop = not ctx.loops_and_coloops[1]
        assert (ctx.tutte.eval_at(0, 1) >= 1) == (len(ctx.points) >= 1) == no_coloop

    def test_shortcut_equals_the_minors_off_a_graph(self):
        # the house's columns with a zero third coordinate, sheared, and a
        # column (1, 1, 1), the only one off the plane z = 0: a coloop of an
        # arrangement whose columns are not a network matrix
        house = [(1, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1)]
        cols = [(x + y, y, 0) for x, y in house] + [(1, 1, 1)]
        va = VectorArrangement(3, tuple(f"e{i}" for i in range(1, 8)), Mat.from_cols(cols, rows=3))
        assert Analysis(va).loops_and_coloops == ((), ("e7",))
        assert len(Analysis(va).usable) == 6
        self.assert_shortcut_equals_minors(va)

    def test_builds_no_minor(self, monkeypatch):
        ctx = Analysis(cographical_arrangement(_data_graph("house_selfloop")))
        assert ctx.loops_and_coloops == ((), ("7",))
        assert ctx.harmonics.point_count == 0  # the parent's filtration, read by other checks
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("integer_kernel", "minor_cocircuits"):
            monkeypatch.setattr(analysis, name, spy(name, getattr(analysis, name)))
        monkeypatch.setattr(Harmonics, "__init__", spy("Harmonics", Harmonics.__init__))
        reports = _deletion_contraction(ctx)
        assert [r.element for r in reports] == ["1", "2", "3", "4", "5", "6"]
        assert all(r.ok for r in reports)
        assert calls == []

    def test_loop_or_coloop_element_still_raises(self):
        ctx = Analysis(cographical_arrangement(_data_graph("selfloop")))
        assert ctx.loops_and_coloops == (("1",), ("2",))
        for a in ("1", "2"):
            with pytest.raises(LoopOrColoopError):
                ctx.deletion_contraction(a)


def test_trailing_zero_graded_piece_fails_the_series_checks(monkeypatch, house_arrangement):
    # a degree is stored only while the rank is below n, so the last graded
    # piece is nonzero and grDims is compared untrimmed: a trailing 0 is a
    # fault of the filtration, not a form of the series
    gr_dims = Harmonics.gr_dims.fget
    monkeypatch.setattr(Harmonics, "gr_dims", property(lambda h: (*gr_dims(h), 0)))
    report = build_report("", house_arrangement)
    assert report["grDims"][-1] == 0
    failed = [key for key, v in report["checks"].items() if v is False]
    assert failed == ["tutteIdentity", "powerIdealDims"]


class TestTutteDuality:
    """The certificate that T_G is T_A with x and y swapped, on W5."""

    @staticmethod
    def _duality(g, rows) -> bool:
        columns = Mat.from_cols(zip(*rows), rows=len(rows))
        va = VectorArrangement(len(rows), tuple(str(a.ident) for a in g.arrows), columns)
        return _tutte_duality(Analysis(va, g))

    def test_cycle_matrix_passes(self):
        g = wheel_graph(5)
        assert self._duality(g, row_list(cographical_arrangement(g).columns))

    def test_flipped_sign_fails(self):
        # one cycle no longer closes up at the ends of the flipped arrow
        g = wheel_graph(5)
        rows = row_list(cographical_arrangement(g).columns)
        j = next(j for j, x in enumerate(rows[0]) if x)
        rows[0][j] = -rows[0][j]
        assert rank(rows) == len(rows)
        assert not self._duality(g, rows)

    def test_broken_rank_identity_fails(self):
        # four of the five fundamental cycles: every row is a cycle, but they
        # span only part of the cycle space, so r + rank(G) < |E|
        g = wheel_graph(5)
        rows = row_list(cographical_arrangement(g).columns)
        assert not self._duality(g, rows[:-1])

    def test_report_gates_on_duality(self):
        # the columns of spokes 1 and 2 swapped: still unimodular, with the
        # same matroid up to relabelling, so every series still agrees; only
        # the certificate sees that the columns no longer belong to their arrows
        g = wheel_graph(5)
        cols = cographical_arrangement(g).columns.col_list()
        cols[0], cols[1] = cols[1], cols[0]
        va = VectorArrangement(5, tuple(str(a.ident) for a in g.arrows), Mat.from_cols(cols, rows=5))
        report = build_report("", va, g)
        assert [key for key, v in report["checks"].items() if v is False] == ["tutteIdentity"]
        assert report["pass"] is False

    def test_self_loop_has_zero_incidence_column(self):
        g = DirectedGraph(("a", "b"), (Arrow(1, "a", "b"), Arrow(2, "b", "a"), Arrow(3, "b", "b")))
        assert [row[2] for row in signed_incidence(g)] == [0, 0]
        assert self._duality(g, row_list(cographical_arrangement(g).columns))
