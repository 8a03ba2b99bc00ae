import random
from pathlib import Path

import pytest
from hypothesis import settings

from zonoharm.formats import parse_arrangement, parse_graph
from zonoharm.arrangement import VectorArrangement
from zonoharm.graphs import Arrow, DirectedGraph, cographical_arrangement
from zonoharm.linalg import Mat

settings.register_profile("zonoharm", deadline=None)
settings.load_profile("zonoharm")

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def house_graph():
    return parse_graph((DATA / "house.graph").read_text())


@pytest.fixture(scope="session")
def house_arrangement():
    return parse_arrangement((DATA / "house.arr").read_text())


@pytest.fixture()
def rng():
    return random.Random(20240817)


def data_path(name: str) -> Path:
    return DATA / name


def wheel_graph(k: int) -> DirectedGraph:
    """The wheel W_k: a hub joined by k spokes (arrows 1..k) to a k-cycle rim."""
    rim = [f"r{i}" for i in range(k)]
    ends = [("h", v) for v in rim] + [(rim[i], rim[(i + 1) % k]) for i in range(k)]
    arrows = tuple(Arrow(ident=i, tail=t, head=h) for i, (t, h) in enumerate(ends, start=1))
    return DirectedGraph(vertices=("h", *rim), arrows=arrows)


def complete_graph(k: int) -> DirectedGraph:
    """K_k with vertices v0..v(k-1) and one arrow from each vertex to every later one."""
    vs = tuple(f"v{i}" for i in range(k))
    pairs = [(t, h) for i, t in enumerate(vs) for h in vs[i + 1 :]]
    return DirectedGraph(vs, tuple(Arrow(ident=i, tail=t, head=h) for i, (t, h) in enumerate(pairs, start=1)))


def cycle_arrangement(k: int) -> VectorArrangement:
    """The rank-1 arrangement of k copies of (1): the cographical arrangement of a k-cycle."""
    return VectorArrangement(1, tuple(f"a{i}" for i in range(k)), Mat.from_cols([(1,)] * k, rows=1))


K33 = "".join(f"vertex {side}{i}\n" for side in "ab" for i in (1, 2, 3)) + "".join(
    f"arrow {3 * i + j + 1} a{i + 1} b{j + 1}\n" for i in range(3) for j in range(3)
)
PRISM_ARROWS = ("x1 x2", "x2 x3", "x3 x1", "y1 y2", "y2 y3", "y3 y1", "x1 y1", "x2 y2", "x3 y3")
PRISM = "".join(f"vertex {side}{i}\n" for side in "xy" for i in (1, 2, 3)) + "".join(
    f"arrow {n} {ends}\n" for n, ends in enumerate(PRISM_ARROWS, start=1)
)


def named_arrangement(name):
    if name.startswith("C"):
        return cycle_arrangement(int(name[1:]))
    if name in ("W4", "W5"):
        return cographical_arrangement(wheel_graph(int(name[1:])))
    if name == "K5":
        return cographical_arrangement(complete_graph(5))
    text = {"K33": K33, "prism": PRISM}.get(name) or data_path(f"{name}.graph").read_text()
    return cographical_arrangement(parse_graph(text))
