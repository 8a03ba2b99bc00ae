"""The analysis context computes each quantity once; exactness ranks match their oracle."""

import cProfile
import pstats
import random

import pytest

from conftest import data_path, wheel_graph
from oracles import exactness_on_eval_rows
from zonoharm.analysis import Analysis, _exactness_ranks, _tutte_duality
from zonoharm.arrangement import VectorArrangement, contraction_data, enumerate_cocircuits
from zonoharm.formats import parse_graph
from zonoharm.graphs import (
    Arrow,
    DirectedGraph,
    _corank_nullity,
    cographical_arrangement,
    signed_incidence,
    tutte_of_arrangement,
)
from zonoharm.harmonics import Harmonics, divided_power_generation_check
from zonoharm.ideals import verify_vanishing
from zonoharm.linalg import Mat, hermite_rows, rank
from zonoharm.report import build_graph_report, build_report
from zonoharm.verification import random_connected_multigraph, run_instance_checks


def complete_graph_k4() -> DirectedGraph:
    vs = ("a", "b", "c", "d")
    pairs = [(t, h) for i, t in enumerate(vs) for h in vs[i + 1 :]]
    arrows = tuple(Arrow(ident=i, tail=t, head=h) for i, (t, h) in enumerate(pairs, start=1))
    return DirectedGraph(vertices=vs, arrows=arrows)


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
        lambda g: run_instance_checks(g, check_exactness=True),
    ],
    ids=["build_graph_report", "run_instance_checks"],
)
def test_each_quantity_once_per_arrangement(run):
    g = complete_graph_k4()
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
    # canonical rows of a filtration: none.  The minors' checks read
    # echelons, and every degree of K4's filtration has unit pivots, so the
    # dividedPowerGeneration check has no saturation to compare with
    assert _calls(stats, hermite_rows, caller=divided_power_generation_check) == 0
    assert _calls(stats, enumerate_cocircuits) == 1
    # one walk: the graph's polynomial is the arrangement's, swapped, and one
    # duality certificate, read by both Tutte checks
    assert _calls(stats, tutte_of_arrangement) == 1
    assert _calls(stats, _corank_nullity) == 1
    assert _calls(stats, signed_incidence) == 1
    # the generatorsVanish check and the certificate of the power dims share one verdict
    assert _calls(stats, verify_vanishing) == 1


def _exactness_both_ways(ctx: Analysis, element, bars=None) -> tuple:
    """The exactness verdict on basis rows and on all evaluation rows."""
    ctx_del, ctx_con, own_bars = ctx.minors(element)
    args = (ctx, ctx_del, ctx_con, element, own_bars if bars is None else bars)
    return _exactness_ranks(*args), exactness_on_eval_rows(*args)


def _graph_contexts():
    for name in ("cycle4", "house", "selfloop", "theta"):
        yield name, Analysis(cographical_arrangement(parse_graph(data_path(f"{name}.graph").read_text())))
    yield "K4", Analysis(cographical_arrangement(complete_graph_k4()))
    yield "W4", Analysis(cographical_arrangement(wheel_graph(4)))
    rng = random.Random(1)
    for i in range(12):
        yield f"suite{i}", Analysis(cographical_arrangement(random_connected_multigraph(rng, 9)))


def test_exactness_on_basis_rows_matches_all_rows():
    checked = 0
    for name, ctx in _graph_contexts():
        if not ctx.points.points:
            continue
        for a in ctx.usable:
            assert _exactness_both_ways(ctx, a) == (True, True), (name, a)
            checked += 1
    assert checked >= 40


def test_exactness_fails_on_swapped_bars(house_graph):
    # two points with different images in the contraction trade images: the
    # pullback no longer factors through the quotient, so exactness fails
    ctx = Analysis(cographical_arrangement(house_graph))
    assert len(ctx.usable) == 6
    for a in ctx.usable:
        _, _, bars = ctx.minors(a)
        k = next(k for k in range(1, len(bars)) if bars[k] != bars[0])
        swapped = [bars[k], *bars[1:k], bars[0], *bars[k + 1 :]]
        assert _exactness_both_ways(ctx, a) == (True, True)
        assert _exactness_both_ways(ctx, a, swapped) == (False, False)


def test_exactness_fails_on_bars_not_constant_along_the_element():
    # the 7 points are symmetric under swapping the coordinates, so the bars
    # of the swapped point, (U (z1, z0))[1:], factor through an affine
    # bijection and pass every rank check; they are not constant along the
    # element's direction, which only the composite-vanishing test sees
    cols = [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)]
    va = VectorArrangement(2, tuple(f"e{i}" for i in range(6)), Mat.from_cols(cols, rows=2))
    ctx = Analysis(va)
    assert len(ctx.points) == 7
    for a in ("e0", "e1", "e2", "e3"):
        _, transform, _ = contraction_data(va, a)
        twisted = [tuple(transform.matvec((z[1], z[0]))[1:]) for z in ctx.points.points]
        assert _exactness_both_ways(ctx, a) == (True, True)
        assert _exactness_both_ways(ctx, a, twisted) == (False, False)


@pytest.mark.parametrize(
    "layer, method, fault",
    [
        ("parent", "saturated_echelon", lambda ech, i: ech(i - 1)),
        ("deletion", "saturated_echelon", lambda ech, i: ech(i - 1)),
        ("contraction", "echelon", lambda ech, i: (ech(i)[0][:1] * len(ech(i)[0]), ech(i)[1])),
        ("parent", "echelon", lambda ech, i: (ech(i)[0][:1], ech(i)[1][:1])),
    ],
    ids=["pullback-escapes", "difference-escapes", "pullback-not-injective", "difference-not-onto"],
)
def test_each_exactness_exit_fails_on_its_own_fault(layer, method, fault):
    # each fault breaks one of the four tests and leaves the others, and the
    # dimension identity, true: a saturated piece lagging one degree lets an
    # image escape it; echelon rows that repeat the first, or keep only the
    # constant function, take rank from the pullback or the difference
    ctx = Analysis(cographical_arrangement(wheel_graph(4)))
    a = ctx.usable[0]
    ctx_del, ctx_con, bars = ctx.minors(a)
    assert _exactness_ranks(ctx, ctx_del, ctx_con, a, bars)
    layers = {"parent": ctx, "deletion": ctx_del, "contraction": ctx_con}
    h = layers[layer].full_harmonics
    ech = getattr(h, method)
    setattr(h, method, lambda i: fault(ech, i))  # the instance attribute shadows the method
    assert not _exactness_ranks(ctx, ctx_del, ctx_con, a, bars)


class TestTutteDuality:
    """The certificate that T_G is T_A with x and y swapped, on W5."""

    @staticmethod
    def _duality(g, rows) -> bool:
        va = VectorArrangement(len(rows), tuple(str(a.ident) for a in g.arrows), Mat.from_rows(rows))
        return _tutte_duality(Analysis(va, g))

    def test_cycle_matrix_passes(self):
        g = wheel_graph(5)
        assert self._duality(g, cographical_arrangement(g).columns.row_list())

    def test_flipped_sign_fails(self):
        # one cycle no longer closes up at the ends of the flipped arrow
        g = wheel_graph(5)
        rows = cographical_arrangement(g).columns.row_list()
        j = next(j for j, x in enumerate(rows[0]) if x)
        rows[0][j] = -rows[0][j]
        assert rank(Mat.from_rows(rows)) == len(rows)
        assert not self._duality(g, rows)

    def test_broken_rank_identity_fails(self):
        # four of the five fundamental cycles: every row is a cycle, but they
        # span only part of the cycle space, so r + rank(G) < |E|
        g = wheel_graph(5)
        rows = cographical_arrangement(g).columns.row_list()
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
        assert signed_incidence(g).col(2) == (0, 0)
        assert self._duality(g, cographical_arrangement(g).columns.row_list())
