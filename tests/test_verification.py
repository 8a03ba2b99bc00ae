import random
import runpy
import sys
from pathlib import Path

import pytest

from zonoharm import analysis, graphs, ideals, verification
from zonoharm.cli import main
from zonoharm.errors import SizeExceededError
from zonoharm.formats import parse_graph, serialize_graph
from zonoharm.graphs import spanning_forest
from zonoharm.verification import (
    InstanceChecks,
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
    "deletion_contraction",
}


def failed_checks(g) -> tuple:
    """The names of the checks that fail on ``g``, sorted."""
    return InstanceChecks(0, "", run_instance_checks(g)).failed()


@pytest.fixture()
def swapped_tutte(monkeypatch):
    """Both Tutte polynomials come from one deletion-contraction, and
    tutte_duality certifies the coordinatisation, not that computation, so
    one that returned T(M*) for T(M) would keep it; the point count and the
    Hilbert series comparisons catch it."""
    tutte = graphs._binary_tutte
    monkeypatch.setattr(graphs, "_binary_tutte", lambda parity: tutte(parity).swap())


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
            assert len(spanning_forest(g)) == len(g.vertices) - 1  # one component


class TestInstanceChecks:
    def test_house_all_pass(self, house_graph):
        checks = run_instance_checks(house_graph)
        assert set(checks) == EXPECTED_CHECKS
        assert all(checks.values())
        assert failed_checks(house_graph) == ()

    def test_walk_with_swapped_exponents_fails_the_point_count(self, house_graph, swapped_tutte):
        assert failed_checks(house_graph) == ("point_count_identity", "tutte_identity")

    @pytest.mark.parametrize(
        "module, name, fault, failed",
        [
            # one cycle lost: only the cocircuit/cycle match reads the cycles
            (
                analysis,
                "enumerate_oriented_cycles",
                lambda f: lambda g, forest: f(g, forest)[:-1],
                ("cocircuits_match_cycles",),
            ),
            # each shift one too low: the binomials miss their zeros; the power
            # dims read only the cocircuits' pure powers, so they hold
            (
                analysis,
                "k_minus_generators",
                lambda f: lambda cocs: [x._replace(shift=x.shift - 1) for x in f(cocs)],
                ("generators_vanish",),
            ),
            # the last cocircuit power dropped from the ideal layer's generators
            (ideals, "_powers", lambda f: lambda cocs: f(cocs)[:-1], ("power_ideal_dims",)),
        ],
        ids=["cycles", "shifted-binomials", "pure-powers"],
    )
    def test_planted_fault_fails_only_its_check(
        self, house_graph, monkeypatch, module, name, fault, failed
    ):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        assert failed_checks(house_graph) == failed

    def test_graph_text_replays(self, swapped_tutte):
        # a suite serializes only its first failure: the text parses back
        # to that instance of the stream
        summary = run_suite(4, 3, 6)
        assert (summary.failures, summary.first_failure.index) == (1, 2)
        rng = random.Random(4)
        stream = [random_connected_multigraph(rng, 6) for _ in range(3)]
        assert parse_graph(summary.first_failure.graph_text) == stream[2]


class TestSuite:
    def test_small_suite_passes(self):
        summary = run_suite(2, 15, 6)
        assert summary.ok
        assert summary.passes == 15
        assert summary.first_failure is None

    def test_first_failure_keeps_its_index(self, swapped_tutte):
        # the swapped polynomial of the instance checks above fails most instances;
        # the summary names the first failing one by its index in the stream
        seed, count, max_edges = 4, 12, 6
        summary = run_suite(seed, count, max_edges)
        rng = random.Random(seed)
        stream = [random_connected_multigraph(rng, max_edges) for _ in range(count)]
        replay = [run_instance_checks(g) for g in stream]
        failing = [i for i, checks in enumerate(replay) if not all(checks.values())]
        assert failing[0] == 2
        assert (summary.failures, summary.passes) == (len(failing), count - len(failing))
        assert summary.first_failure == InstanceChecks(2, serialize_graph(stream[2]), replay[2])

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

    @pytest.mark.parametrize("entry", ["cli", "script"])
    def test_a_fault_in_a_check_is_not_a_usage_error(self, monkeypatch, entry):
        # only the suite's own argument checks read as a usage error; a
        # ValueError raised inside an instance propagates
        def planted(g):
            raise ValueError("planted fault")

        monkeypatch.setattr(verification, "run_instance_checks", planted)
        with pytest.raises(ValueError, match="planted fault"):
            if entry == "cli":
                main(["random-suite", "--count", "1"])
            else:
                script = Path(__file__).resolve().parent.parent / "scripts" / "random_verification.py"
                monkeypatch.setattr(sys, "argv", [str(script), "--seeds", "1", "--count", "1"])
                runpy.run_path(str(script), run_name="__main__")
