"""The record semantics the package relies on.

``Mat``, ``VectorArrangement`` and ``DirectedGraph`` validate and normalise
their fields on construction.  They compare, hash and print through one base,
``linalg.Record``, by their fields in slot order and within their own type;
the plain records are named tuples.
"""

import pytest

from conftest import cycle_arrangement
from zonoharm.analysis import Analysis
from zonoharm.arrangement import VectorArrangement, enumerate_cocircuits
from zonoharm.graphs import Arrow, DirectedGraph
from zonoharm.ideals import k_minus_generators
from zonoharm.linalg import Mat


def _mat():
    return Mat(2, 3, ((1, 0), (0, 1), (1, 1)))


def _arrangement():
    return VectorArrangement(2, ("a", "b", "c"), _mat())


def _graph():
    arrows = (Arrow(2, "v", "u"), Arrow(1, "u", "v"))
    return DirectedGraph(vertices=("u", "v"), arrows=arrows)


VALUES = {
    "Mat": _mat,
    "VectorArrangement": _arrangement,
    "DirectedGraph": _graph,
}

MAT_REPR = "Mat(rows=2, cols=3, data=((1, 0), (0, 1), (1, 1)))"
REPRS = {
    "Mat": MAT_REPR,
    "VectorArrangement": f"VectorArrangement(lattice_rank=2, ground=('a', 'b', 'c'), columns={MAT_REPR})",
    "DirectedGraph": (
        "DirectedGraph(vertices=('u', 'v'),"
        " arrows=(Arrow(ident=1, tail='u', head='v'), Arrow(ident=2, tail='v', head='u')))"
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values_with_equal_hashes(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b) == REPRS[name]


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_different_type_is_never_equal(name):
    value = VALUES[name]()
    for other in VALUES:
        if other != name:
            assert value != VALUES[other]()
    assert value != tuple(getattr(value, s) for s in type(value).__slots__)
    assert value != object()


def test_a_minor_built_without_the_constructor_is_the_same_value():
    # Analysis.minors slices the deletion's columns out of the parent's and
    # skips the constructor's checks; it is still the validated value
    deletion, _, _ = Analysis(_arrangement()).minors("c")
    validated = VectorArrangement(2, ("a", "b"), Mat(2, 2, ((1, 0), (0, 1))))
    assert deletion.va == validated and hash(deletion.va) == hash(validated)
    assert repr(deletion.va) == repr(validated)
    assert len({deletion.va, validated}) == 1


def test_different_fields_differ():
    assert Mat(1, 2, ((1,), (2,))) != Mat(2, 1, ((1, 2),))
    assert Mat(1, 2, ((1,), (2,))) != Mat(1, 2, ((2,), (1,)))
    # equal entries read by rows and by columns: a matrix and its transpose
    assert Mat(2, 2, ((1, 2), (3, 4))) != Mat(2, 2, ((1, 3), (2, 4)))
    assert VectorArrangement(1, ("a", "b"), Mat(1, 2, ((1,), (1,)))) != VectorArrangement(
        1, ("b", "a"), Mat(1, 2, ((1,), (1,)))
    )
    assert _graph() != DirectedGraph(("u", "v"), (Arrow(1, "u", "v"),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Mat(-1, 0, ()), "negative dimension"),
        (lambda: Mat(0, -1, ()), "negative dimension"),
        (lambda: Mat(2, 2, ((1, 2), (3, 4), (5, 6))), "column count does not match shape"),
        (lambda: Mat(2, 2, ((1, 2), (3,))), "column length does not match shape"),
        (lambda: Mat.from_cols([(1, 2), (3, 4)], rows=3), "column length does not match shape"),
        (lambda: VectorArrangement(3, ("a", "b", "c"), _mat()), "does not match rank and ground set"),
        (lambda: VectorArrangement(2, ("a", "b"), _mat()), "does not match rank and ground set"),
        (lambda: VectorArrangement(2, ("a", "b", "a"), _mat()), "duplicate ground set labels"),
        (
            lambda: VectorArrangement(2, ("a", "b"), Mat(2, 2, ((1, 2), (2, 4)))),
            "columns do not span the ambient lattice",
        ),
        (lambda: DirectedGraph(("u", "u"), ()), "duplicate vertex labels"),
        (
            lambda: DirectedGraph(("u", "v"), (Arrow(1, "u", "v"), Arrow(1, "v", "u"))),
            "duplicate arrow ids",
        ),
        (lambda: DirectedGraph(("u",), (Arrow(3, "u", "w"),)), "arrow 3 references an unknown vertex"),
        (lambda: DirectedGraph(("u",), (Arrow(4, "w", "u"),)), "arrow 4 references an unknown vertex"),
    ],
)
def test_each_validation_still_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_graph_sorts_its_arrows():
    g = _graph()
    assert [a.ident for a in g.arrows] == [1, 2]
    assert g.arrows == (Arrow(1, "u", "v"), Arrow(2, "v", "u"))
    assert g.vertices == ("u", "v")


def test_keyword_and_positional_construction_agree():
    assert Mat(rows=2, cols=3, data=_mat().data) == _mat()
    assert VectorArrangement(lattice_rank=2, ground=("a", "b", "c"), columns=_mat()) == _arrangement()
    assert DirectedGraph(("u", "v"), _graph().arrows) == _graph()


def test_generator_replace():
    (g,) = k_minus_generators(enumerate_cocircuits(cycle_arrangement(5)))
    bad = g._replace(shift=g.shift - 1)
    assert bad.shift == g.shift - 1
    assert (bad.cocircuit, bad.degree) == (g.cocircuit, g.degree)
    assert bad != g and g._replace(shift=g.shift) == g
