import cProfile
import pstats
import random

import pytest
from hypothesis import given, settings

from conftest import K33, cycle_arrangement, data_path, named_arrangement
from oracles import all_degree_redundant_generators, dense_quotient_dims_mod_p
from strategies import connected_multigraphs
from zonoharm import ideals
from zonoharm.analysis import Analysis
from zonoharm.arrangement import VectorArrangement, enumerate_cocircuits, interior_lattice_points
from zonoharm.errors import NotTotallyUnimodularError, SizeExceededError
from zonoharm.funcspace import binom_int
from zonoharm.formats import parse_graph
from zonoharm.graphs import cographical_arrangement, tutte_of_arrangement
from zonoharm.harmonics import compute_filtration, iz_hilbert_series
from zonoharm.ideals import (
    k_minus_generators,
    power_ideal_quotient_dims,
    redundant_generators,
    verify_vanishing,
)
from zonoharm.linalg import Mat
from zonoharm.verification import random_connected_multigraph


def trim(seq):
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestGenerators:
    def test_house(self, house_arrangement):
        gens = k_minus_generators(house_arrangement)
        assert {(g.cocircuit.covector, g.shift, g.degree) for g in gens} == {
            ((0, 1), -1, 2),
            ((1, 0), -1, 3),
            ((1, -1), 1, 4),
        }

    def test_cycle(self):
        (g,) = k_minus_generators(cycle_arrangement(5))
        assert (g.cocircuit.covector, g.shift, g.degree) == ((1,), -1, 4)

    def test_single_coloop_constant_one(self):
        va = VectorArrangement(1, ("a1",), Mat.from_rows([[1]]))
        (g,) = k_minus_generators(va)
        assert g.degree == 0
        assert g.evaluate((7,)) == 1
        # vacuously vanishing: the interior point set is empty
        assert verify_vanishing([g], interior_lattice_points(va))


class TestVanishing:
    def test_house(self, house_arrangement):
        gens = k_minus_generators(house_arrangement)
        assert verify_vanishing(gens, interior_lattice_points(house_arrangement))

    def test_cycle(self):
        for k in range(2, 7):
            va = cycle_arrangement(k)
            assert verify_vanishing(k_minus_generators(va), interior_lattice_points(va))

    def test_wrong_shift_fails(self):
        va = cycle_arrangement(5)
        (g,) = k_minus_generators(va)
        bad = g._replace(shift=g.shift - 1)
        assert not verify_vanishing([bad], interior_lattice_points(va))


class TestQuotientDims:
    def test_house(self, house_arrangement):
        assert power_ideal_quotient_dims(house_arrangement) == (1, 2, 2, 1, 0)

    def test_cycle(self):
        for k in (3, 4, 6):
            dims = power_ideal_quotient_dims(cycle_arrangement(k))
            assert trim(dims) == (1,) * (k - 1)

    def test_unit_ideal(self):
        va = VectorArrangement(1, ("a1",), Mat.from_rows([[1]]))
        assert trim(power_ideal_quotient_dims(va)) == ()

    def test_non_unimodular_input_rejected(self):
        # (2) is 0 mod 2; with or without a bound, the cocircuits enumerated
        # in the call reject it before the Tutte series is read
        va = VectorArrangement(1, ("a", "b"), Mat.from_rows([[1, 2]]))
        for bound in (None, 3):
            with pytest.raises(NotTotallyUnimodularError):
                power_ideal_quotient_dims(va, bound)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_matches_graded_dims(self, g):
        va = cographical_arrangement(g)
        rep = compute_filtration(va)
        assert trim(power_ideal_quotient_dims(va)) == trim(rep.gr_dims)


class TestLeadingForms:
    def test_binomial_lift_has_pure_power_top_degree(self, house_arrangement):
        # (d-1)! C(t + d_- - 1, d-1) - t^(d-1) must have degree < d-1 in t,
        # detected by a vanishing (d-1)-st finite difference
        for g in k_minus_generators(house_arrangement):
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


class TestRedundancy:
    @pytest.mark.parametrize("fn", [redundant_generators, power_ideal_quotient_dims])
    def test_cocircuits_enumerated_once(self, fn):
        # the default bound reads the Tutte polynomial, which the same
        # cocircuits certify; they are not enumerated a second time
        va = cographical_arrangement(parse_graph(data_path("theta.graph").read_text()))
        prof = cProfile.Profile()
        prof.runcall(fn, va)
        code = enumerate_cocircuits.__code__
        assert pstats.Stats(prof).stats[(code.co_filename, code.co_firstlineno, code.co_name)][1] == 1

    def test_house_redundant_generator(self, house_arrangement):
        cocs = enumerate_cocircuits(house_arrangement)
        (idx,) = redundant_generators(house_arrangement)
        assert cocs[idx].covector == (1, -1)

    def test_cycle_has_no_redundancy(self):
        assert redundant_generators(cycle_arrangement(4)) == ()

    def test_k33_certified_by_the_chain(self, bareiss_calls):
        # every degree of the report's dims is certified by the chain mod P;
        # each non-redundant generator takes one exact rank to decide
        va = cographical_arrangement(parse_graph(K33))
        assert Analysis(va).power_dims == (1, 4, 10, 11, 5, 0)
        assert bareiss_calls == []
        assert len(redundant_generators(va)) == 6
        assert len(bareiss_calls) == 9

    @pytest.mark.parametrize("name", ["house", "C3", "C4", "C5", "C6", "W4", "K33", "prism"])
    def test_one_degree_matches_all_degrees(self, name):
        va = named_arrangement(name)
        assert redundant_generators(va) == all_degree_redundant_generators(va)

    def test_one_degree_matches_all_degrees_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(30):
            va = cographical_arrangement(random_connected_multigraph(rng, 7))
            assert redundant_generators(va) == all_degree_redundant_generators(va)


# power-ideal dims and redundant generator indices, computed by exact ranks
EXPECTED = {
    "house": ((1, 2, 2, 1, 0), (0,)),
    "W4": ((1, 4, 6, 3, 0), (2, 4, 5, 7, 8, 9, 10, 11)),
    "K33": ((1, 4, 10, 11, 5, 0), (3, 6, 7, 10, 12, 13)),
    "prism": ((1, 4, 8, 9, 4, 0), (0, 3, 5, 6, 7, 9, 10, 11, 13)),
}


@pytest.fixture()
def bareiss_calls(monkeypatch):
    """Record the shape of every exact rank the ideal layer takes."""
    calls = []
    exact = ideals.rank

    def spy(rows):
        calls.append((len(rows), len(rows[0])))
        return exact(rows)

    monkeypatch.setattr(ideals, "rank", spy)
    return calls


class TestCertificate:
    """Each exit of the orbit-harmonics certificate: a certified degree (see
    ``test_k33_certified_by_the_chain``), a bound missed mod a small prime,
    and no bound when the shifted binomials do not vanish."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_small_prime_falls_back_to_exact_rank(self, monkeypatch, bareiss_calls, name, p):
        monkeypatch.setattr(ideals, "P", p)
        va = named_arrangement(name)
        assert (power_ideal_quotient_dims(va), redundant_generators(va)) == EXPECTED[name]
        assert bareiss_calls

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_no_bound_without_vanishing(self, monkeypatch, bareiss_calls, name):
        monkeypatch.setattr(ideals, "verify_vanishing", lambda gens, points: False)
        va = named_arrangement(name)
        dims = power_ideal_quotient_dims(va)
        assert dims == EXPECTED[name][0]
        # one exact rank per degree that has generators, none mod P alone
        low = min(c.degree - 1 for c in enumerate_cocircuits(va))
        assert len(bareiss_calls) == len(dims) - low

    def test_report_without_vanishing_ranks_every_degree_exactly(self, bareiss_calls):
        ctx = Analysis(named_arrangement("K33"))
        ctx.generators_vanish = False  # the cached verdict
        assert ctx.power_dims == EXPECTED["K33"][0]
        assert len(bareiss_calls) == 3  # degrees 3..5: K3,3's shortest cycles have 4 arrows

    def test_wheel7_certified_without_exact_rank(self, bareiss_calls):
        va = cographical_arrangement(parse_graph(data_path("wheel7.graph").read_text()))
        assert power_ideal_quotient_dims(va) == (1, 7, 21, 35, 35, 21, 6, 0)
        assert bareiss_calls == []


def top_bound(va):
    """The default bound of ``power_ideal_quotient_dims``."""
    return len(iz_hilbert_series(va, tutte_of_arrangement(va, enumerate_cocircuits(va))))


def chain_dims(va, bound):
    """dim V_d over F_P of the successive quotients, before any certificate."""
    r = va.lattice_rank
    expansions = ideals._expansions(enumerate_cocircuits(va), r)
    return tuple(dim for dim, _, _ in ideals._chain(r, expansions, bound))


class TestChain:
    """The successive quotients mod p against the dense Macaulay ranks mod p:
    both are dim over F_p of the same graded piece, so they agree degree by
    degree whether or not the certificate holds."""

    @pytest.mark.parametrize("p", [ideals.P, 2, 3])
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_matches_dense_mod_p(self, monkeypatch, name, p):
        monkeypatch.setattr(ideals, "P", p)
        va = named_arrangement(name)
        bound = top_bound(va)
        assert chain_dims(va, bound) == dense_quotient_dims_mod_p(va, bound, p)

    @pytest.mark.parametrize("p", [ideals.P, 2, 3])
    def test_matches_dense_mod_p_on_random_graphs(self, monkeypatch, p):
        monkeypatch.setattr(ideals, "P", p)
        rng = random.Random(7)
        for _ in range(30):
            va = cographical_arrangement(random_connected_multigraph(rng, 7))
            bound = top_bound(va)
            assert chain_dims(va, bound) == dense_quotient_dims_mod_p(va, bound, p)

    @pytest.mark.parametrize(
        "va, bound",
        [
            (VectorArrangement(1, ("a1",), Mat.from_rows([[1]])), 3),  # a degree-0 generator
            (cographical_arrangement(parse_graph("vertex a\nvertex b\narrow 1 a b\n")), 3),
            (cographical_arrangement(parse_graph(data_path("selfloop.graph").read_text())), 3),
            (named_arrangement("K33"), 2),  # below the top degree
            (named_arrangement("prism"), 3),
        ],
        ids=["unit-ideal", "no-cocircuits", "selfloop", "K33-bound-2", "prism-bound-3"],
    )
    def test_edge_cases_match_dense(self, va, bound):
        dense = dense_quotient_dims_mod_p(va, bound)
        assert chain_dims(va, bound) == dense
        assert power_ideal_quotient_dims(va, bound) == dense
        assert redundant_generators(va, bound) == all_degree_redundant_generators(va, bound)

    def test_no_cocircuits_has_rank_zero(self):
        va = cographical_arrangement(parse_graph("vertex a\nvertex b\narrow 1 a b\n"))
        assert va.lattice_rank == 0 and enumerate_cocircuits(va) == ()
        assert power_ideal_quotient_dims(va) == (1, 0)


class TestSizeCap:
    """``SYM_DEGREE_DIM_CAP`` guards the exact fallback only."""

    def test_fallback_trips_before_listing_monomials(self, monkeypatch, bareiss_calls):
        monkeypatch.setattr(ideals, "SYM_DEGREE_DIM_CAP", 3)
        monkeypatch.setattr(ideals, "verify_vanishing", lambda gens, points: False)
        listed = []
        exponents = ideals.exponents_of_degree

        def spy(r, d):
            listed.append(d)
            return exponents(r, d)

        monkeypatch.setattr(ideals, "exponents_of_degree", spy)
        va = named_arrangement("K33")  # dim Sym_1 = 4 > 3; no generator below degree 3
        with pytest.raises(SizeExceededError, match="degree-1 "):
            power_ideal_quotient_dims(va)
        assert 1 not in listed
        assert bareiss_calls == []

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_certified_degrees_never_trip(self, monkeypatch, name):
        monkeypatch.setattr(ideals, "SYM_DEGREE_DIM_CAP", 0)
        assert power_ideal_quotient_dims(named_arrangement(name)) == EXPECTED[name][0]
