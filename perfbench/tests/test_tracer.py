"""Span and counter semantics of the tracer, on a throwaway two-module package."""

import importlib
import sys
import textwrap

import pytest

from tracer import Tracer, self_times, summarize


def test_self_time_is_duration_minus_child_cover():
    #  span 0: [0, 10]; children 1: [1, 4] and 2: [3, 6] overlap on [3, 4];
    #  child 3: [9, 12] sticks out of its parent; span 4 is a grandchild.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert self_times(parent, start, end) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 3, 1])


@pytest.fixture
def toy(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        from .b import Box, g, squares

        def f(n):
            total = sum(squares(n))  # generator of b resumed from a
            for _ in range(n):
                total += g(1)
            return total + Box(2).size
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        class Box:
            def __init__(self, size):
                self.size = size

        def h(x):
            return x + 1

        def g(x):
            return h(x)  # inside b: a call, but no span

        def squares(n):
            for i in range(n):
                yield i * i
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("toypkg.a"), str(pkg)
    for name in [m for m in sys.modules if m.startswith("toypkg")]:
        del sys.modules[name]


def test_spans_at_module_boundaries_and_counts_of_every_call(toy):
    a, pkg_dir = toy
    tracer = Tracer(pkg_dir, op_id=7)
    tracer.start()
    try:
        assert a.f(3) == 0 + 1 + 4 + 3 * 2 + 2
    finally:
        Tracer.stop()
    rec = tracer.dump()
    assert rec["op"] == 7
    assert rec["calls"] == {"a.f": 1, "b.squares": 1, "b.g": 3, "b.h": 3, "b.Box": 1}
    names = [rec["names"][i] for i in rec["spans"]["name"]]
    # a.f from the caller; squares resumed 4 times (3 yields + exhaustion)
    assert names == ["a.f"] + ["b.squares"] * 4 + ["b.g"] * 3 + ["b.Box"]
    assert rec["spans"]["fresh"] == [1, 1, 0, 0, 0, 1, 1, 1, 1]
    assert set(rec["spans"]["parent"][1:]) == {0}
    modules = summarize(rec)
    assert modules["a"][0] == 1 and modules["b"][0] == 1 + 3 + 1
    spans = rec["spans"]
    total = spans["end"][0] - spans["start"][0]
    assert modules["a"][1] + modules["b"][1] == pytest.approx(total)
    assert rec["cum_s"]["a.f"] == pytest.approx(total)
