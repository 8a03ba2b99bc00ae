"""The analysis context computes each quantity once per arrangement."""

import cProfile
import pstats

import pytest

from zonoharm.analysis import Analysis
from zonoharm.arrangement import enumerate_cocircuits
from zonoharm.graphs import Arrow, DirectedGraph, cographical_arrangement, tutte_of_arrangement
from zonoharm.harmonics import Harmonics
from zonoharm.report import build_graph_report
from zonoharm.verification import run_instance_checks


def complete_graph_k4() -> DirectedGraph:
    vs = ("a", "b", "c", "d")
    pairs = [(t, h) for i, t in enumerate(vs) for h in vs[i + 1 :]]
    arrows = tuple(Arrow(ident=i, tail=t, head=h) for i, (t, h) in enumerate(pairs, start=1))
    return DirectedGraph(vertices=vs, arrows=arrows)


def _calls(stats: pstats.Stats, fn) -> int:
    code = fn.__code__
    return stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]


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
    u = len(Analysis(cographical_arrangement(g)).usable)
    assert u == 6
    prof = cProfile.Profile()
    prof.runcall(run, g)
    stats = pstats.Stats(prof)
    # one filtration for the arrangement and one per minor; nothing rebuilt,
    # and the minors' cocircuits are derived from the arrangement's
    assert _calls(stats, Harmonics.__init__) == 1 + 2 * u
    assert _calls(stats, enumerate_cocircuits) == 1
    assert _calls(stats, tutte_of_arrangement) == 1

