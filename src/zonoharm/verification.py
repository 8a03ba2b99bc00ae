"""Cross-checks tying the whole pipeline together, plus the random suite.

Each instance (a directed multigraph) is pushed through the cographical
arrangement, the filtration, the Tutte specializations, the ideal layer, and
the deletion/contraction checks; every identity of ``analysis.CHECKS`` is
recorded as a named boolean.  The random stream is fully determined by its
seed so any failure can be replayed from the serialized instance.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .analysis import CHECKS, Analysis
from .errors import ArgumentError, SizeExceededError
from .formats import serialize_graph
from .graphs import Arrow, DirectedGraph, cographical_arrangement

RANDOM_SUITE_MAX_EDGES = 9


class InstanceChecks(NamedTuple):
    index: int
    graph_text: str
    checks: dict

    def failed(self) -> tuple:
        return tuple(name for name, ok in sorted(self.checks.items()) if not ok)


def random_connected_multigraph(rng: random.Random, max_edges: int) -> DirectedGraph:
    """One connected multigraph with 1..max_edges arrows (parallels, self-loops allowed)."""
    m = rng.randint(1, max_edges)
    n = rng.randint(1, m + 1)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = []
    for v in range(2, n + 1):
        edges.append((rng.randint(1, v - 1), v))  # spanning tree
    while len(edges) < m:
        edges.append((rng.randint(1, n), rng.randint(1, n)))
    rng.shuffle(edges)
    arrows = []
    for i, (u, v) in enumerate(edges, start=1):
        if rng.random() < 0.5:
            u, v = v, u
        arrows.append(Arrow(ident=i, tail=f"v{u}", head=f"v{v}"))
    return DirectedGraph(vertices=vertices, arrows=tuple(arrows))


def run_instance_checks(g: DirectedGraph) -> dict:
    """``{name: verdict}`` of every check of ``CHECKS`` for one graph instance."""
    ctx = Analysis(cographical_arrangement(g), g)
    return {c.name: c.passed(c.run(ctx)) for c in CHECKS}


class SuiteSummary(NamedTuple):
    passes: int
    failures: int
    first_failure: InstanceChecks | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_suite(seed: int, count: int, max_edges: int) -> SuiteSummary:
    """Run the deterministic random verification suite: ``count`` instances
    of at most ``max_edges`` arrows each, drawn from the stream of ``seed``."""
    if count < 0:
        raise ArgumentError("random suite needs a non-negative count")
    if max_edges < 1:
        raise ArgumentError("random suite needs at least 1 edge")
    if max_edges > RANDOM_SUITE_MAX_EDGES:
        raise SizeExceededError(f"random suite limited to {RANDOM_SUITE_MAX_EDGES} edges")
    rng = random.Random(seed)
    passes = 0
    failures = 0
    first_failure = None
    for i in range(count):
        g = random_connected_multigraph(rng, max_edges)
        checks = run_instance_checks(g)
        if all(checks.values()):
            passes += 1
        else:
            failures += 1
            if first_failure is None:
                first_failure = InstanceChecks(i, serialize_graph(g), checks)
    return SuiteSummary(passes=passes, failures=failures, first_failure=first_failure)
