import cProfile
import pstats
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import K33, cycle_arrangement, data_path, named_arrangement, wheel_graph
from oracles import all_degree_redundant_generators, dense_power_expansion, dense_quotient_dims
from strategies import connected_multigraphs
from zonoharm import analysis, ideals
from zonoharm.analysis import Analysis
from zonoharm.arrangement import VectorArrangement, enumerate_cocircuits
from zonoharm.errors import NotTotallyUnimodularError, SizeExceededError
from zonoharm.funcspace import binom_int
from zonoharm.formats import parse_graph
from zonoharm.graphs import cographical_arrangement, tutte_of_arrangement
from zonoharm.analysis import compute_filtration
from zonoharm.harmonics import Harmonics, iz_hilbert_series
from zonoharm.ideals import k_minus_generators, redundant_generators, verify_vanishing
from zonoharm.linalg import Mat
from zonoharm.verification import random_connected_multigraph


def trim(seq):
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@given(
    st.integers(0, 6).flatmap(
        lambda r: st.tuples(st.lists(st.integers(-3, 3), min_size=r, max_size=r), st.integers(0, 6))
    )
)
def test_power_expansion_over_the_support_equals_the_dense_one(case):
    # same keys, values and key order as the expansion over every exponent
    covector, e = case
    r = len(covector)
    expected = dense_power_expansion(covector, e, r)
    assert list(ideals._power_expansion(covector, e, r).items()) == list(expected.items())


class TestGenerators:
    def test_house(self, house_arrangement):
        gens = k_minus_generators(enumerate_cocircuits(house_arrangement))
        assert {(g.cocircuit.covector, g.shift, g.degree) for g in gens} == {
            ((0, 1), -1, 2),
            ((1, 0), -1, 3),
            ((1, -1), 1, 4),
        }

    def test_cycle(self):
        (g,) = k_minus_generators(enumerate_cocircuits(cycle_arrangement(5)))
        assert (g.cocircuit.covector, g.shift, g.degree) == ((1,), -1, 4)

    def test_single_coloop_constant_one(self):
        va = VectorArrangement(1, ("a1",), Mat.from_cols([(1,)], rows=1))
        (g,) = k_minus_generators(enumerate_cocircuits(va))
        assert g.degree == 0
        assert g.evaluate((7,)) == 1
        # vacuously vanishing: the interior point set is empty
        assert verify_vanishing([g], Analysis(va).points)


class TestVanishing:
    def test_house(self, house_arrangement):
        gens = k_minus_generators(enumerate_cocircuits(house_arrangement))
        assert verify_vanishing(gens, Analysis(house_arrangement).points)

    def test_cycle(self):
        for k in range(2, 7):
            va = cycle_arrangement(k)
            ctx = Analysis(va)
            assert verify_vanishing(k_minus_generators(ctx.cocircuits), ctx.points)

    def test_wrong_shift_fails(self):
        va = cycle_arrangement(5)
        (g,) = k_minus_generators(enumerate_cocircuits(va))
        bad = g._replace(shift=g.shift - 1)
        assert not verify_vanishing([bad], Analysis(va).points)


# power-ideal dims and redundant generator indices, computed by exact ranks
EXPECTED = {
    "house": ((1, 2, 2, 1, 0), (0,)),
    "W4": ((1, 4, 6, 3, 0), (2, 4, 5, 7, 8, 9, 10, 11)),
    "K33": ((1, 4, 10, 11, 5, 0), (3, 6, 7, 10, 12, 13)),
    "prism": ((1, 4, 8, 9, 4, 0), (0, 3, 5, 6, 7, 9, 10, 11, 13)),
}


class TestQuotientDims:
    def test_house(self, house_arrangement):
        assert Analysis(house_arrangement).power_dims == (1, 2, 2, 1, 0)

    def test_cycle(self):
        for k in (3, 4, 6):
            dims = Analysis(cycle_arrangement(k)).power_dims
            assert trim(dims) == (1,) * (k - 1)

    def test_unit_ideal(self):
        va = VectorArrangement(1, ("a1",), Mat.from_cols([(1,)], rows=1))
        assert trim(Analysis(va).power_dims) == ()

    def test_non_unimodular_input_rejected(self):
        # (2) is 0 mod 2: the context's cocircuits reject it before the
        # Tutte series is read
        va = VectorArrangement(1, ("a", "b"), Mat.from_cols([(1,), (2,)], rows=1))
        with pytest.raises(NotTotallyUnimodularError):
            Analysis(va).power_dims

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_matches_graded_dims(self, g):
        va = cographical_arrangement(g)
        rep = compute_filtration(va)
        assert trim(Analysis(va).power_dims) == trim(rep.gr_dims)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_without_vanishing(self, monkeypatch, name):
        # the dimensions read nothing of the points: no vanishing verdict,
        # no filtration
        monkeypatch.setattr(analysis, "verify_vanishing", lambda gens, points: False)
        va = named_arrangement(name)
        ctx = Analysis(va)
        assert not ctx.generators_vanish
        assert (ctx.power_dims, redundant_generators(va)) == EXPECTED[name]

    def test_wheel7(self):
        va = cographical_arrangement(parse_graph(data_path("wheel7.graph").read_text()))
        assert Analysis(va).power_dims == (1, 7, 21, 35, 35, 21, 6, 0)


class TestLeadingForms:
    def test_binomial_lift_has_pure_power_top_degree(self, house_arrangement):
        # (d-1)! C(t + d_- - 1, d-1) - t^(d-1) must have degree < d-1 in t,
        # detected by a vanishing (d-1)-st finite difference
        for g in k_minus_generators(enumerate_cocircuits(house_arrangement)):
            e = g.degree
            fact = 1
            for i in range(2, e + 1):
                fact *= i

            def p(t):
                return fact * binom_int(t + g.shift, e) - t**e

            diff = [p(t) for t in range(e + 1)]
            for _ in range(e):
                diff = [b - a for a, b in zip(diff, diff[1:])]
            assert diff == [0]

    def test_opposite_cocircuit_generators_agree_up_to_sign(self, house_arrangement):
        for c in enumerate_cocircuits(house_arrangement):
            e = c.degree - 1
            sign = (-1) ** e
            for t in range(-6, 7):
                lhs = binom_int(t + c.d_minus - 1, e)
                rhs = binom_int(-t + c.d_plus - 1, e)
                assert lhs == sign * rhs


def power_dims(va):
    return Analysis(va).power_dims


class TestRedundancy:
    @pytest.mark.parametrize("fn", [redundant_generators, power_dims])
    def test_cocircuits_enumerated_once(self, fn):
        # the degree bound reads the Tutte polynomial, which the same
        # cocircuits certify; they are not enumerated a second time
        va = cographical_arrangement(parse_graph(data_path("theta.graph").read_text()))
        prof = cProfile.Profile()
        prof.runcall(fn, va)
        code = enumerate_cocircuits.__code__
        assert pstats.Stats(prof).stats[(code.co_filename, code.co_firstlineno, code.co_name)][1] == 1

    @pytest.mark.parametrize("fn", [redundant_generators, power_dims])
    def test_one_filtration_per_call(self, fn):
        # the ideal layer reads the cocircuits and the Tutte bound only: it
        # builds no filtration at all
        prof = cProfile.Profile()
        prof.runcall(fn, named_arrangement("W4"))
        code = Harmonics.__init__.__code__
        assert (code.co_filename, code.co_firstlineno, code.co_name) not in pstats.Stats(prof).stats

    @pytest.mark.parametrize("name", ["W4", "house"])
    def test_standalone_dims_equal_the_context(self, monkeypatch, name):
        # ``redundant_generators`` runs the chain of the context's
        # ``power_dims``, to the same degree
        va = named_arrangement(name)
        expected = Analysis(va).power_dims
        dims = []
        chain = ideals._chain

        def spy(*args):
            for step in chain(*args):
                dims.append(step[0])
                yield step

        monkeypatch.setattr(ideals, "_chain", spy)
        redundant_generators(va)
        assert tuple(dims) == expected

    def test_cap_trips_before_the_cocircuits(self):
        # a 12-cycle with 10 chords: 22 arrows, past the 20-column cap of the
        # Tutte polynomial that bounds the degrees, so nothing is enumerated
        chords = [(1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12), (1, 4), (7, 10), (2, 11), (3, 6)]
        ends = [(i, i % 12 + 1) for i in range(1, 13)] + chords
        text = "".join(f"vertex v{i}\n" for i in range(1, 13)) + "".join(
            f"arrow {k} v{t} v{h}\n" for k, (t, h) in enumerate(ends, start=1)
        )
        va = cographical_arrangement(parse_graph(text))
        assert (va.size, va.lattice_rank) == (22, 11)
        prof = cProfile.Profile()
        with pytest.raises(SizeExceededError, match="20 columns"):
            prof.runcall(redundant_generators, va)
        code = enumerate_cocircuits.__code__
        assert (code.co_filename, code.co_firstlineno, code.co_name) not in pstats.Stats(prof).stats

    def test_house_redundant_generator(self, house_arrangement):
        cocs = enumerate_cocircuits(house_arrangement)
        (idx,) = redundant_generators(house_arrangement)
        assert cocs[idx].covector == (1, -1)

    def test_cycle_has_no_redundancy(self):
        assert redundant_generators(cycle_arrangement(4)) == ()

    def test_k33_certified_by_the_chain(self):
        va = cographical_arrangement(parse_graph(K33))
        assert Analysis(va).power_dims == (1, 4, 10, 11, 5, 0)
        assert len(redundant_generators(va)) == 6

    def test_wheel6(self):
        va = cographical_arrangement(wheel_graph(6))
        assert Analysis(va).power_dims == (1, 6, 15, 20, 15, 5, 0)
        assert redundant_generators(va) == (2, 4, 5, 7, 8, 9, 11, 12, 13, 14, *range(16, 30))

    @pytest.mark.parametrize("name", ["house", "C3", "C4", "C5", "C6", "W4", "K33", "prism"])
    def test_one_degree_matches_all_degrees(self, name):
        va = named_arrangement(name)
        assert redundant_generators(va) == all_degree_redundant_generators(va)

    def test_one_degree_matches_all_degrees_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(30):
            va = cographical_arrangement(random_connected_multigraph(rng, 7))
            assert redundant_generators(va) == all_degree_redundant_generators(va)


def top_bound(va):
    """The degree bound of ``Analysis.power_dims`` and ``redundant_generators``."""
    return len(iz_hilbert_series(va, tutte_of_arrangement(va, enumerate_cocircuits(va))))


def chain_dims(va, bound):
    """dim V_d over Q of the successive quotients."""
    r = va.lattice_rank
    expansions = ideals._expansions(enumerate_cocircuits(va), r)
    return tuple(dim for dim, _, _ in ideals._chain(r, expansions, bound))


class TestChain:
    """The successive quotients against the dense Macaulay ranks over Q, by
    Bareiss elimination: both are dim over Q of the same graded piece."""

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_matches_dense(self, name):
        va = named_arrangement(name)
        bound = top_bound(va)
        assert chain_dims(va, bound) == dense_quotient_dims(va, bound)

    def test_matches_dense_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(30):
            va = cographical_arrangement(random_connected_multigraph(rng, 7))
            bound = top_bound(va)
            assert chain_dims(va, bound) == dense_quotient_dims(va, bound)

    def test_row_without_unit_entry(self, monkeypatch):
        # the house's chain meets a reduced row with no +-1 entry, so its
        # pivot entry is not 1 and the next degree's basis is scaled
        seen = []
        insert, reduce = ideals._insert, ideals._reduce

        def spy(row, pivots):
            seen.append(reduce(row, pivots))
            insert(row, pivots)

        monkeypatch.setattr(ideals, "_insert", spy)
        va = named_arrangement("house")
        bound = top_bound(va)
        assert chain_dims(va, bound) == dense_quotient_dims(va, bound) == EXPECTED["house"][0]
        assert any(row and not {1, -1} & set(row.values()) for row in seen)

    @pytest.mark.parametrize(
        "va, bound",
        [
            # a degree-0 generator
            (VectorArrangement(1, ("a1",), Mat.from_cols([(1,)], rows=1)), 3),
            (cographical_arrangement(parse_graph("vertex a\nvertex b\narrow 1 a b\n")), 3),
            (cographical_arrangement(parse_graph(data_path("selfloop.graph").read_text())), 3),
            (named_arrangement("K33"), 2),  # below the top degree
            (named_arrangement("prism"), 3),
        ],
        ids=["unit-ideal", "no-cocircuits", "selfloop", "K33-bound-2", "prism-bound-3"],
    )
    def test_edge_cases_match_dense(self, va, bound):
        assert chain_dims(va, bound) == dense_quotient_dims(va, bound)
        # the public results run to the degree bound of the Tutte series
        assert Analysis(va).power_dims == dense_quotient_dims(va, top_bound(va))
        assert redundant_generators(va) == all_degree_redundant_generators(va)

    def test_no_cocircuits_has_rank_zero(self):
        va = cographical_arrangement(parse_graph("vertex a\nvertex b\narrow 1 a b\n"))
        assert va.lattice_rank == 0 and enumerate_cocircuits(va) == ()
        assert Analysis(va).power_dims == (1, 0)
