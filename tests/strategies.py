"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from zonoharm.arrangement import VectorArrangement
from zonoharm.graphs import Arrow, DirectedGraph, cographical_arrangement
from zonoharm.linalg import Mat


@st.composite
def connected_multigraphs(draw, max_edges=6, allow_self_loops=True):
    m = draw(st.integers(1, max_edges))
    n = draw(st.integers(1, m + 1))
    edges = []
    for v in range(2, n + 1):
        edges.append((draw(st.integers(1, v - 1)), v))
    while len(edges) < m:
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n)) if allow_self_loops else draw(
            st.integers(1, n).filter(lambda x: x != u or n == 1)
        )
        edges.append((u, v))
    arrows = []
    for i, (u, v) in enumerate(edges, start=1):
        if draw(st.booleans()):
            u, v = v, u
        arrows.append(Arrow(ident=i, tail=f"v{u}", head=f"v{v}"))
    return DirectedGraph(
        vertices=tuple(f"v{i}" for i in range(1, n + 1)), arrows=tuple(arrows)
    )


@st.composite
def multigraphs(draw, max_vertices=6, max_edges=8):
    """Arrows drawn between any two vertices, self-loops included, so isolated
    vertices, several components and no arrows at all can all occur."""
    n = draw(st.integers(1, max_vertices))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    edges = draw(st.lists(ends, max_size=max_edges))
    return DirectedGraph(
        vertices=tuple(f"v{i}" for i in range(1, n + 1)),
        arrows=tuple(
            Arrow(ident=i, tail=f"v{u}", head=f"v{v}") for i, (u, v) in enumerate(edges, start=1)
        ),
    )


@st.composite
def sheared_arrangements(draw, max_edges=6):
    """A cycle-space arrangement moved by a few random integer shears.

    Shears keep the lattice, so the arrangement stays valid while its
    covectors leave {-1, 0, 1} and its bounding box changes.
    """
    va = cographical_arrangement(draw(connected_multigraphs(max_edges=max_edges)))
    r = va.lattice_rank
    cols = va.columns.col_list()
    if r >= 2:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
            f = draw(st.sampled_from((-2, -1, 1, 2)))
            for c in cols:
                c[i] += f * c[j]
    return VectorArrangement(r, va.ground, Mat.from_cols(cols, rows=r))
