import random

import pytest

from zonoharm import analysis, graphs, ideals
from zonoharm.errors import SizeExceededError
from zonoharm.formats import parse_graph
from zonoharm.graphs import graph_rank
from zonoharm.verification import (
    random_connected_multigraph,
    run_instance_checks,
    run_suite,
)

EXPECTED_CHECKS = {
    "tutte_identity",
    "point_count_identity",
    "tutte_duality",
    "saturation",
    "cocircuits_match_cycles",
    "generators_vanish",
    "power_ideal_dims",
    "divided_power_law",
    "deletion_contraction",
}


class TestGenerator:
    def test_deterministic_stream(self):
        a = [random_connected_multigraph(random.Random(4), 7) for _ in range(10)]
        b = [random_connected_multigraph(random.Random(4), 7) for _ in range(10)]
        assert a == b

    def test_connected_and_bounded(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_connected_multigraph(rng, 6)
            assert 1 <= len(g.arrows) <= 6
            assert graph_rank(g) == len(g.vertices) - 1  # one component


class TestInstanceChecks:
    def test_house_all_pass(self, house_graph):
        res = run_instance_checks(house_graph)
        assert set(res.checks) == EXPECTED_CHECKS
        assert res.ok
        assert res.failed() == ()

    def test_walk_with_swapped_exponents_fails_the_point_count(self, house_graph, monkeypatch):
        # both Tutte polynomials come from one walk, and tutte_duality
        # certifies the coordinatisation, not the walk, so a walk that
        # returned T(M*) for T(M) would keep it; the point count and the
        # Hilbert series comparisons catch it
        walk = graphs._corank_nullity
        monkeypatch.setattr(graphs, "_corank_nullity", lambda parity: walk(parity).swap())
        res = run_instance_checks(house_graph)
        assert res.failed() == ("point_count_identity", "tutte_identity")

    @pytest.mark.parametrize(
        "module, name, fault, failed",
        [
            # one cycle lost: only the cocircuit/cycle match reads the cycles
            (
                analysis,
                "enumerate_oriented_cycles",
                lambda f: lambda g: f(g)[:-1],
                ("cocircuits_match_cycles",),
            ),
            # each shift one too low: the binomials miss their zeros; the power
            # dims read the verdict too, but fall back to exact ranks and hold
            (
                analysis,
                "k_minus_generators",
                lambda f: lambda cocs: [x._replace(shift=x.shift - 1) for x in f(cocs)],
                ("generators_vanish",),
            ),
            # the last cocircuit power dropped from the ideal layer's generators
            (ideals, "_expansions", lambda f: lambda cocs, r: f(cocs, r)[:-1], ("power_ideal_dims",)),
        ],
        ids=["cycles", "shifted-binomials", "pure-powers"],
    )
    def test_planted_fault_fails_only_its_check(
        self, house_graph, monkeypatch, module, name, fault, failed
    ):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        assert run_instance_checks(house_graph).failed() == failed

    def test_graph_text_replays(self, house_graph):
        res = run_instance_checks(house_graph)
        assert parse_graph(res.graph_text) == house_graph


class TestSuite:
    def test_small_suite_passes(self):
        summary = run_suite(2, 15, 6)
        assert summary.ok
        assert summary.passes == 15
        assert summary.first_failure is None

    def test_first_failure_keeps_its_index(self, monkeypatch):
        # the swapped walk of the instance checks above fails most instances;
        # the summary names the first failing one by its index in the stream
        walk = graphs._corank_nullity
        monkeypatch.setattr(graphs, "_corank_nullity", lambda parity: walk(parity).swap())
        seed, count, max_edges = 4, 12, 6
        summary = run_suite(seed, count, max_edges)
        rng = random.Random(seed)
        replay = [
            run_instance_checks(random_connected_multigraph(rng, max_edges)) for _ in range(count)
        ]
        failing = [i for i, res in enumerate(replay) if not res.ok]
        assert failing[0] == 2
        assert (summary.failures, summary.passes) == (len(failing), count - len(failing))
        assert summary.first_failure == replay[2]._replace(index=2)

    def test_edge_cap(self):
        with pytest.raises(SizeExceededError):
            run_suite(1, 50, 10)

    @pytest.mark.parametrize("max_edges", [0, -1])
    def test_needs_an_edge(self, max_edges):
        with pytest.raises(ValueError, match="at least 1 edge"):
            run_suite(1, 50, max_edges)

    def test_count_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative count"):
            run_suite(1, -1, 5)
        assert run_suite(1, 0, 5) == (0, 0, None)
