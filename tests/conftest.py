import random
from pathlib import Path

import pytest
from hypothesis import settings

from zonoharm.formats import parse_arrangement, parse_graph
from zonoharm.graphs import Arrow, DirectedGraph

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
