import cProfile
import pstats
import random
from itertools import combinations, product

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import wheel_graph
from oracles import (
    IsColoopError,
    IsLoopError,
    assert_quotient_map,
    contraction_data,
    deletion,
    echelon_cocircuits,
    matvec,
    rank_loops_and_coloops,
    scanned_minor_cocircuits,
    unpruned_cocircuits,
    violating_minor,
)
from strategies import connected_multigraphs, sheared_arrangements
from zonoharm.analysis import Analysis
from zonoharm.arrangement import (
    Cocircuit,
    VectorArrangement,
    certify_pairings,
    deletion_drops,
    enumerate_cocircuits,
    interior_lattice_points,
    loops_and_coloops,
    minor_cocircuits,
)
from zonoharm.errors import CertificateError, LoopOrColoopError, NotTotallyUnimodularError
from zonoharm.graphs import Arrow, DirectedGraph, cographical_arrangement, tutte_of_arrangement
from zonoharm.linalg import Mat, det, kernel_step, rank


def arr(rank_, cols, labels=None):
    labels = tuple(labels) if labels else tuple(f"a{i+1}" for i in range(len(cols)))
    return VectorArrangement(rank_, labels, Mat.from_cols(cols, rows=rank_))


def cycle_arrangement(k):
    return arr(1, [(1,)] * k)


HOUSE = [(1, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1)]
SHEARED_HOUSE = [(1, 0), (1, 0), (1, 0), (2, 1), (1, 1), (1, 1)]  # (x, y) -> (x + y, y)


def unimodular(va) -> bool:
    """The library's decision: the cocircuits certify that every basis has det +-1."""
    try:
        enumerate_cocircuits(va)
    except NotTotallyUnimodularError:
        return False
    return True


def scan_outcome(scan, va):
    """The cocircuits, or the payload of the witness error that rejects ``va``."""
    try:
        return scan(va)
    except NotTotallyUnimodularError as exc:
        return exc.basis, exc.determinant, exc.covector, exc.values, str(exc)


def assert_supports_incomparable(cocs):
    supports = [frozenset(i for i, v in enumerate(c.values) if v) for c in cocs]
    assert not any(s <= t for i, s in enumerate(supports) for j, t in enumerate(supports) if i != j)


@st.composite
def spanning_matrices(draw):
    """A spanning integer arrangement of rank <= 4 with <= 7 columns and small entries."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 7))
    entries = draw(st.sampled_from((st.integers(-1, 1), st.integers(-2, 2))))
    m = Mat.from_cols([[draw(entries) for _ in range(r)] for _ in range(n)], rows=r)
    assume(rank(m.data) == r)
    return VectorArrangement(r, tuple(f"a{i + 1}" for i in range(n)), m)


class TestIntegerEntries:
    """The constructor refuses a column entry that is not an int, before any
    analysis: a float 1.0 would pass the cocircuit scan and fail in the
    Tutte walk, and 1.5 would be named as a determinant."""

    @pytest.mark.parametrize("first", [1.0, 1.5], ids=["integral-float", "fraction"])
    def test_rejected(self, first):
        with pytest.raises(ValueError, match="column entries must be integers"):
            VectorArrangement(1, ("a", "b", "c"), Mat.from_cols([(first,), (1,), (1,)], rows=1))

    def test_int_entries_accepted(self):
        va = VectorArrangement(1, ("a", "b", "c"), Mat.from_cols([(1,), (1,), (1,)], rows=1))
        assert Analysis(va).points == ((1,), (2,))


class TestTotallyUnimodular:
    def test_house(self, house_arrangement):
        assert unimodular(house_arrangement)
        assert violating_minor(house_arrangement) is None

    def test_single_column_two(self):
        assert not unimodular(arr(1, [(2,)]))
        assert violating_minor(arr(1, [(2,)])) is not None

    def test_identity_columns(self):
        va = arr(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert unimodular(va)
        assert violating_minor(va) is None

    def test_sheared_house_accepted(self):
        # a GL_2(Z) image of the house: not TU as written, yet every basis has det +-1
        va = arr(2, SHEARED_HOUSE)
        assert violating_minor(va) is not None
        assert unimodular(va)

    def test_spanning_required(self):
        with pytest.raises(ValueError):
            arr(2, [(1, 0), (2, 0)])

    @given(spanning_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rejected_iff_some_basis_determinant_exceeds_one(self, va):
        cols = va.columns.col_list()
        dets = [det([cols[j] for j in sel]) for sel in combinations(range(va.size), va.lattice_rank)]
        try:
            cocs = enumerate_cocircuits(va)
        except NotTotallyUnimodularError as exc:
            assert any(abs(d) > 1 for d in dets)
            assert len(set(exc.basis)) == va.lattice_rank
            witness = sympy.Matrix([va.column(a) for a in exc.basis]).det()
            assert witness == exc.determinant
            assert exc.determinant not in (-1, 1)
        else:
            assert all(abs(d) <= 1 for d in dets)
            assert_supports_incomparable(cocs)

    def test_witness_names_basis_and_determinant(self):
        va = arr(2, [(1, 1), (1, -1), (1, 0)], labels="abc")
        with pytest.raises(NotTotallyUnimodularError) as info:
            enumerate_cocircuits(va)
        assert str(info.value) == (
            "basis ['a', 'b'] has determinant -2 (cocircuit (1, -1) pairs to (0, 2, 1))"
        )
        assert sympy.Matrix([[1, 1], [1, -1]]).det() == info.value.determinant == -2


class TestLoopsColoops:
    def test_house(self, house_arrangement):
        assert Analysis(house_arrangement).loops_and_coloops == ((), ())

    def test_mixed(self):
        loops, coloops = Analysis(arr(1, [(1,), (0,)])).loops_and_coloops
        assert loops == ("a2",)
        assert coloops == ("a1",)

    def test_cycle(self):
        assert Analysis(cycle_arrangement(4)).loops_and_coloops == ((), ())

    def test_rank_zero_all_loops(self):
        va = VectorArrangement(0, ("a1", "a2"), Mat(0, 2, ((), ())))
        assert Analysis(va).loops_and_coloops == (("a1", "a2"), ())

    def test_rejected_input_raises(self):
        # coloops are read off the cocircuits, so an input they reject raises
        with pytest.raises(NotTotallyUnimodularError):
            Analysis(arr(2, [(1, 1), (1, -1), (1, 0)])).loops_and_coloops

    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=80, deadline=None)
    def test_cocircuits_equal_rank_definition(self, g):
        # self-loops are coloops, bridges are loops, a tree has rank 0
        va = cographical_arrangement(g)
        expected = rank_loops_and_coloops(va)
        assert Analysis(va).loops_and_coloops == expected
        assert loops_and_coloops(va, enumerate_cocircuits(va)) == expected

    @given(sheared_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_cocircuits_equal_rank_definition_sheared(self, va):
        assert Analysis(va).loops_and_coloops == rank_loops_and_coloops(va)


class TestDeletion:
    """The reference deletion that ``Analysis.minors`` is checked against."""

    def test_cycle(self):
        va = deletion(cycle_arrangement(3), "a1")
        assert va.size == 2 and va.lattice_rank == 1

    def test_house_keeps_rank(self, house_arrangement):
        va = deletion(house_arrangement, "e4")
        assert va.columns.cols == 5
        assert rank(va.columns.data) == 2

    def test_two_column_rank_one(self):
        va = deletion(arr(1, [(1,), (1,)]), "a2")
        assert va.ground == ("a1",)

    def test_coloop_rejected(self):
        with pytest.raises(IsColoopError):
            deletion(arr(1, [(1,), (0,)]), "a1")


class TestContraction:
    """The reference contraction that ``Analysis.minors`` is checked against."""

    def test_cycle_gives_rank_zero(self):
        va = contraction_data(cycle_arrangement(4), "a2")[0]
        assert va.lattice_rank == 0
        assert va.size == 3
        assert va.columns.data == ((), (), ())
        loops, _ = Analysis(va).loops_and_coloops
        assert loops == va.ground

    def test_basis_vector_drops_coordinate(self):
        va = arr(2, [(1, 0), (0, 1), (1, 1)])
        out = contraction_data(va, "a1")[0]
        assert out.columns.col_list() == [[1], [1]]

    def test_house_element_four(self, house_arrangement):
        out, quotient = contraction_data(house_arrangement, "e4")
        assert out.lattice_rank == 1 and out.size == 5
        # point-count additivity: 6 interior points split 2 + 4
        pts = Analysis(house_arrangement).points
        pts_del = Analysis(deletion(house_arrangement, "e4")).points
        pts_con = Analysis(out).points
        assert (len(pts), len(pts_del), len(pts_con)) == (6, 2, 4)
        leftover = [p for p in pts if p not in pts_del]
        images = {matvec(quotient, z) for z in leftover}
        assert images == set(pts_con)

    def test_loop_rejected(self):
        with pytest.raises(IsLoopError):
            contraction_data(arr(1, [(1,), (0,)]), "a2")

    def test_quotient_check_rejects_what_is_no_quotient_map(self):
        # a sublattice of index 2, a row that does not vanish on e_1, one
        # row too few
        assert_quotient_map(((0, 1, 0), (0, 0, 1)), (1, 0, 0))
        for bad in (((0, 2, 0), (0, 0, 1)), ((1, 1, 0), (0, 0, 1)), ((0, 1, 0),)):
            with pytest.raises(AssertionError):
                assert_quotient_map(bad, (1, 0, 0))


class TestCocircuits:
    def test_cycle(self):
        (c,) = enumerate_cocircuits(cycle_arrangement(5))
        assert c.covector == (1,)
        assert (c.d_plus, c.d_minus) == (5, 0)

    def test_house(self, house_arrangement):
        cocs = enumerate_cocircuits(house_arrangement)
        table = {c.covector: (c.d_plus, c.d_minus) for c in cocs}
        assert table == {(0, 1): (3, 0), (1, 0): (4, 0), (1, -1): (3, 2)}

    def test_rank_one_single_element(self):
        (c,) = enumerate_cocircuits(arr(1, [(1,)]))
        assert c.degree == 1

    def test_values_in_range(self, house_arrangement):
        for c in enumerate_cocircuits(house_arrangement):
            assert set(c.values) <= {-1, 0, 1}

    def test_non_tu_detected_at_enumeration(self):
        with pytest.raises(NotTotallyUnimodularError):
            enumerate_cocircuits(arr(1, [(2,)]))

    @given(st.one_of(spanning_matrices(), connected_multigraphs(max_edges=8).map(cographical_arrangement)))
    @settings(max_examples=150, deadline=None)
    def test_pruned_scan_equals_unpruned_scan(self, va):
        assert scan_outcome(enumerate_cocircuits, va) == scan_outcome(unpruned_cocircuits, va)

    @given(
        st.one_of(
            spanning_matrices(),
            connected_multigraphs(max_edges=8).map(cographical_arrangement),
            sheared_arrangements(),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_prefix_kernels_equal_echelon_scan(self, va):
        # TU, sheared and (with entries +-2) rejected inputs: the same
        # cocircuits, or the same witness, as one echelon kernel per subset
        assert scan_outcome(enumerate_cocircuits, va) == scan_outcome(echelon_cocircuits, va)

    def test_pruned_scan_kernel_count_on_w5(self):
        # the 21 cocircuits (cycles) of W5 take 40 kernel steps in all, where
        # the unpruned scan takes one kernel per 4-subset of the 10 columns,
        # C(10, 4) = 210, and a kernel from scratch takes 4 steps
        assert scan_kernel_steps(cographical_arrangement(wheel_graph(5))) == (21, 40)

    def test_pruned_scan_kernel_count_at_the_cap(self):
        # the 11-cycle with 9 chords, 20 arrows of rank 10: its 364
        # cocircuits take 1713 kernel steps over C(20, 9) = 167,960 subsets;
        # the order in which the supports are tested skips the same subsets
        chords = [(1, 4), (2, 6), (3, 8), (4, 10), (5, 9), (6, 11), (7, 2), (8, 1), (9, 3)]
        ends = [(i, i % 11 + 1) for i in range(1, 12)] + chords
        arrows = tuple(Arrow(k, str(t), str(h)) for k, (t, h) in enumerate(ends, start=1))
        va = cographical_arrangement(DirectedGraph(tuple(map(str, range(1, 12))), arrows))
        assert va.size == 20
        assert scan_kernel_steps(va) == (364, 1713)


def scan_kernel_steps(va):
    """The number of cocircuits of ``va`` and of ``kernel_step`` calls its scan makes."""
    prof = cProfile.Profile()
    cocs = prof.runcall(enumerate_cocircuits, va)
    code = kernel_step.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return len(cocs), pstats.Stats(prof).stats[key][1]


def _usable(va):
    loops, coloops = Analysis(va).loops_and_coloops
    return [a for a in va.ground if a not in loops and a not in coloops]


def box_filter(va, cocs):
    """Oracle: every point of the zonotope's bounding box that meets the facet inequalities."""
    r = va.lattice_rank
    if r and any(c.degree == 1 for c in cocs):
        return ()
    cols = va.columns.col_list()
    lo = [sum(min(0, c[j]) for c in cols) for j in range(r)]
    hi = [sum(max(0, c[j]) for c in cols) for j in range(r)]
    return tuple(
        z
        for z in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if all(-c.d_minus < sum(x * y for x, y in zip(c.covector, z)) < c.d_plus for c in cocs)
    )


def _minor_cocircuits(va, a, cocs):
    """(deletion's, contraction's) cocircuits derived from ``cocs`` in one sweep."""
    va_con, quotient = contraction_data(va, a)
    return minor_cocircuits(cocs, deletion_drops(cocs), va.index_of(a), va_con, quotient)


def assert_minors_validated(va):
    """Every usable element's minors from ``Analysis.minors`` equal the validated ones.

    ``contraction_data`` checks the quotient map Q, so the contraction's
    columns Q c, checked to span by the constructor, and its bars Q z are a
    contraction's, whatever kernel basis Q is.
    """
    ctx = Analysis(va)
    loops, coloops = ctx.loops_and_coloops
    r, cols = va.lattice_rank, va.columns.col_list()
    for idx, a in enumerate(va.ground):
        if a in loops or a in coloops:
            with pytest.raises(LoopOrColoopError):
                ctx.minors(a)
            if a in loops:
                with pytest.raises(IsLoopError):
                    contraction_data(va, a)
            else:
                with pytest.raises(IsColoopError):
                    deletion(va, a)
            continue
        ctx_del, ctx_con, bars = ctx.minors(a)
        ground = va.ground[:idx] + va.ground[idx + 1 :]
        rest = cols[:idx] + cols[idx + 1 :]
        # the constructor runs its rank check on the same columns, built from lists
        assert ctx_del.va == VectorArrangement(r, ground, Mat.from_cols(rest, rows=r))
        _, quotient = contraction_data(va, a)
        images = [matvec(quotient, c) for c in rest]
        assert ctx_con.va == VectorArrangement(r - 1, ground, Mat.from_cols(images, rows=r - 1))
        assert bars == [matvec(quotient, z) for z in ctx.points]
        assert ctx_del.cocircuits == enumerate_cocircuits(ctx_del.va)
        assert ctx_con.cocircuits == enumerate_cocircuits(ctx_con.va)


class TestMinorCocircuits:
    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=40, deadline=None)
    def test_derived_equal_enumerated(self, g):
        va = cographical_arrangement(g)
        cocs = enumerate_cocircuits(va)
        assert_supports_incomparable(cocs)
        for a in _usable(va):
            cocs_del, cocs_con = _minor_cocircuits(va, a, cocs)
            assert cocs_del == enumerate_cocircuits(deletion(va, a))
            assert cocs_con == enumerate_cocircuits(contraction_data(va, a)[0])

    @given(sheared_arrangements())
    @settings(max_examples=30, deadline=None)
    def test_derived_equal_enumerated_sheared(self, va):
        cocs = enumerate_cocircuits(va)
        assert_supports_incomparable(cocs)
        for a in _usable(va):
            cocs_del, cocs_con = _minor_cocircuits(va, a, cocs)
            assert cocs_del == enumerate_cocircuits(deletion(va, a))
            assert cocs_con == enumerate_cocircuits(contraction_data(va, a)[0])

    @staticmethod
    def assert_table_equals_scan(va):
        cocs = enumerate_cocircuits(va)
        drops = deletion_drops(cocs)
        for a in _usable(va):
            args = (va.index_of(a), *contraction_data(va, a))
            assert minor_cocircuits(cocs, drops, *args) == scanned_minor_cocircuits(cocs, *args)

    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=40, deadline=None)
    def test_drop_table_equals_the_scan(self, g):
        self.assert_table_equals_scan(cographical_arrangement(g))

    @given(sheared_arrangements())
    @settings(max_examples=30, deadline=None)
    def test_drop_table_equals_the_scan_sheared(self, va):
        self.assert_table_equals_scan(va)

    def test_drop_table_of_the_house(self, house_arrangement):
        # supports {e4, e5, e6}, {e1, e2, e3, e5, e6}, {e1..e4}: the first
        # and the third each have only e4 outside the second, so deleting e4
        # (bit 3) drops the second, as in test_deletion_drops_nonminimal_restriction;
        # every other difference has two elements
        cocs = enumerate_cocircuits(house_arrangement)
        assert [c.covector for c in cocs] == [(0, 1), (1, -1), (1, 0)]
        assert deletion_drops(cocs) == (0, 1 << 3, 0)

    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=40, deadline=None)
    def test_analysis_minors_equal_validated(self, g):
        assert_minors_validated(cographical_arrangement(g))

    @given(sheared_arrangements())
    @settings(max_examples=30, deadline=None)
    def test_analysis_minors_equal_validated_sheared(self, va):
        assert_minors_validated(va)

    def test_loop_and_coloop_contracts(self):
        # a1 is a coloop and a2 a loop of this rank-1 arrangement
        va = arr(1, [(1,), (0,)])
        with pytest.raises(IsColoopError):
            deletion(va, "a1")
        with pytest.raises(IsLoopError):
            contraction_data(va, "a2")
        assert_minors_validated(va)

    def test_deletion_drops_nonminimal_restriction(self, house_arrangement):
        # deleting e4 leaves (1, -1) supported on {e1, e2, e3, e5, e6}, which
        # contains the restricted supports of (0, 1) and (1, 0)
        va = house_arrangement
        derived, _ = _minor_cocircuits(va, "e4", enumerate_cocircuits(va))
        assert {c.covector for c in derived} == {(0, 1), (1, 0)}

    def test_flipped_beta_entry_raises(self, house_arrangement):
        va = house_arrangement
        va_con = contraction_data(va, "e5")[0]
        _, derived = _minor_cocircuits(va, "e5", enumerate_cocircuits(va))
        certify_pairings(va_con, derived)
        (c,) = derived
        bad = Cocircuit((-c.covector[0],) + c.covector[1:], c.values, c.d_plus, c.d_minus)
        with pytest.raises(CertificateError):
            certify_pairings(va_con, (bad,))

    def test_perturbed_quotient_raises(self):
        # Q = ((0, 1, 0), (0, 0, 1)); with entry (0, 2) raised to 1, the
        # covector (0, 1, -1) back-substitutes to (1, -2), not (1, -1)
        va = arr(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)])
        cocs = enumerate_cocircuits(va)
        va_con, quotient = contraction_data(va, "a1")
        assert quotient == ((0, 1, 0), (0, 0, 1))
        drops = deletion_drops(cocs)
        assert minor_cocircuits(cocs, drops, 0, va_con, quotient)[1]
        with pytest.raises(CertificateError):
            minor_cocircuits(cocs, drops, 0, va_con, ((0, 1, 1), (0, 0, 1)))


class TestInteriorPoints:
    def test_house(self, house_arrangement):
        pts = Analysis(house_arrangement).points
        assert pts == tuple(sorted((a, b) for a in (1, 2, 3) for b in (1, 2)))

    def test_cycle(self):
        pts = Analysis(cycle_arrangement(6)).points
        assert pts == tuple((z,) for z in range(1, 6))

    def test_coloop_empty(self):
        pts = Analysis(arr(2, [(1, 0), (0, 1), (1, 1)])).points
        # a1 and a2 are not coloops here; build one that has a coloop
        va = arr(2, [(1, 0), (0, 1)])
        assert Analysis(va).points == ()
        assert len(pts) > 0

    def test_rank_zero_single_point(self):
        va = VectorArrangement(0, ("a1", "a2"), Mat(0, 2, ((), ())))
        assert Analysis(va).points == ((),)

    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=40, deadline=None)
    def test_pruned_scan_equals_box_filter(self, g):
        va = cographical_arrangement(g)
        cocs = enumerate_cocircuits(va)
        assert interior_lattice_points(va, cocs) == box_filter(va, cocs)

    @given(sheared_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_pruned_scan_equals_box_filter_sheared(self, va):
        cocs = enumerate_cocircuits(va)
        assert interior_lattice_points(va, cocs) == box_filter(va, cocs)


def _relabeled(va, perm):
    cols = [va.columns.col(j) for j in perm]
    return VectorArrangement(
        va.lattice_rank,
        tuple(va.ground[j] for j in perm),
        Mat.from_cols(cols, rows=va.lattice_rank),
    )


class TestProperties:
    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=40)
    def test_point_count_is_tutte_at_0_1(self, g):
        va = cographical_arrangement(g)
        pts = Analysis(va).points
        assert len(pts) == tutte_of_arrangement(va).eval_at(0, 1)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_deletion_contraction_point_bijection(self, g):
        va = cographical_arrangement(g)
        loops, coloops = Analysis(va).loops_and_coloops
        pts = Analysis(va).points
        for a in va.ground:
            if a in loops or a in coloops:
                continue
            va_del = deletion(va, a)
            va_con, quotient = contraction_data(va, a)
            pts_del = Analysis(va_del).points
            pts_con = Analysis(va_con).points
            assert all(p in pts for p in pts_del)
            leftover = [p for p in pts if p not in pts_del]
            images = [matvec(quotient, z) for z in leftover]
            assert len(images) == len(set(images))
            assert set(images) == set(pts_con)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_cocircuits_invariant_under_relabeling(self, g):
        va = cographical_arrangement(g)
        perm = list(range(va.size))
        random.Random(7).shuffle(perm)
        before = {(c.covector, c.d_plus, c.d_minus) for c in enumerate_cocircuits(va)}
        after = {
            (c.covector, c.d_plus, c.d_minus)
            for c in enumerate_cocircuits(_relabeled(va, perm))
        }
        assert before == after

    def test_deletion_contraction_commute(self, house_arrangement):
        va = house_arrangement
        one = contraction_data(deletion(va, "e1"), "e4")[0]
        other = deletion(contraction_data(va, "e4")[0], "e1")
        assert one.ground == other.ground
        assert one.columns == other.columns

    def test_points_sorted_lexicographically(self, house_arrangement):
        pts = Analysis(house_arrangement).points
        assert list(pts) == sorted(pts)

    @given(
        st.one_of(
            connected_multigraphs(max_edges=8).map(cographical_arrangement),
            sheared_arrangements(),
        )
    )
    @example(VectorArrangement(0, ("a1", "a2"), Mat(0, 2, ((), ()))))  # rank 0
    @example(arr(2, [(1, 0), (0, 1), (1, 1), (1, 1)]))  # a1 and a2 are coloops
    @settings(max_examples=60, deadline=None)
    def test_scan_is_strictly_lexicographic(self, va):
        # nothing sorts the points: the depth-first scan must emit them in order
        pts = interior_lattice_points(va, enumerate_cocircuits(va))
        assert type(pts) is tuple and all(type(p) is tuple for p in pts)
        assert all(p < q for p, q in zip(pts, pts[1:]))
