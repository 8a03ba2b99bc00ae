import cProfile
import pstats
import random
from itertools import combinations
from operator import mul

import pytest
from hypothesis import find, given, settings

from conftest import DATA, complete_graph, wheel_graph
from oracles import (
    bareiss_tutte,
    row_list,
    signed_incidence,
    su2_poincare_polynomial,
    theta_triples,
    tutte_polynomial,
    violating_minor,
)
from strategies import connected_multigraphs, multigraphs
from zonoharm.analysis import Analysis
from zonoharm.arrangement import VectorArrangement, enumerate_cocircuits
from zonoharm.errors import NotTotallyUnimodularError
from zonoharm.formats import parse_arrangement, parse_graph
from zonoharm.graphs import (
    Arrow,
    BivariatePolynomial,
    DirectedGraph,
    cographical_arrangement,
    enumerate_oriented_cycles,
    spanning_forest,
    theta_subgraphs,
    tutte_of_arrangement,
)
from zonoharm.linalg import Mat, det, rank
from zonoharm.verification import random_connected_multigraph


def cycles_of(g):
    return enumerate_oriented_cycles(g, spanning_forest(g))


def graph(n, edges):
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    arrows = tuple(
        Arrow(ident=i, tail=f"v{u}", head=f"v{v}") for i, (u, v) in enumerate(edges, start=1)
    )
    return DirectedGraph(vertices=vertices, arrows=arrows)


def cycle_graph(k):
    return graph(k, [(i, i % k + 1) for i in range(1, k + 1)])


def corank_nullity_tutte(g):
    """Brute-force oracle: sum over edge subsets of (x-1)^(r-r(S)) (y-1)^(|S|-r(S))."""
    vindex = {v: i for i, v in enumerate(g.vertices)}
    edges = [(vindex[a.tail], vindex[a.head]) for a in g.arrows]
    n = len(g.vertices)

    def nedges_rank(subset):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for idx in subset:
            u, v = edges[idx]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                r += 1
        return r

    full = nedges_rank(range(len(edges)))
    acc = {}
    for size in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), size):
            rk = nedges_rank(subset)
            p, q = full - rk, size - rk
            from zonoharm.funcspace import binom_int

            for i in range(p + 1):
                for j in range(q + 1):
                    c = (
                        binom_int(p, i)
                        * (-1) ** (p - i)
                        * binom_int(q, j)
                        * (-1) ** (q - j)
                    )
                    acc[(i, j)] = acc.get((i, j), 0) + c
    return BivariatePolynomial.from_dict(acc)


class TestGraphRank:
    def test_house(self, house_graph):
        assert len(spanning_forest(house_graph)) == 4

    def test_cycle(self):
        assert len(spanning_forest(cycle_graph(5))) == 4

    def test_edgeless(self):
        assert len(spanning_forest(graph(4, []))) == 0


class TestCographical:
    def test_house_columns(self, house_graph):
        va = cographical_arrangement(house_graph)
        # greedy forest {1,2,3,5}; coordinates by fundamental cycles of 4 and 6
        assert va.lattice_rank == 2
        assert va.columns.col_list() == [[1, -1], [1, -1], [1, -1], [1, 0], [0, 1], [0, 1]]

    def test_coherent_cycle_is_all_ones(self):
        va = cographical_arrangement(cycle_graph(5))
        assert va.lattice_rank == 1
        assert row_list(va.columns) == [[1, 1, 1, 1, 1]]

    def test_tree_rank_zero(self):
        va = cographical_arrangement(graph(4, [(1, 2), (2, 3), (3, 4)]))
        assert va.lattice_rank == 0
        assert Analysis(va).points == ((),)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_always_totally_unimodular(self, g):
        assert violating_minor(cographical_arrangement(g)) is None

    def test_forest_is_greedy(self, house_graph):
        assert spanning_forest(house_graph) == (1, 2, 3, 5)

    @staticmethod
    def check_fundamental_cycles(g):
        """Coordinate k of every column is the k-th non-forest arrow f's
        fundamental cycle z: a cycle (the incidence matrix kills it) that is 1
        at f and 0 at every other non-forest arrow.  A forest holds no cycle,
        so these facts fix z, however the columns are built."""
        va = cographical_arrangement(g)
        cols = va.columns.col_list()
        forest = set(spanning_forest(g))
        nonforest = [a.ident for a in g.arrows if a.ident not in forest]
        assert va.lattice_rank == len(nonforest)
        assert va.ground == tuple(str(a.ident) for a in g.arrows)
        incidence = signed_incidence(g)
        for k, f in enumerate(nonforest):
            z = {a.ident: col[k] for a, col in zip(g.arrows, cols)}
            assert all(
                sum(x * z[a.ident] for x, a in zip(row, g.arrows)) == 0 for row in incidence
            )
            assert all(z[e] == (e == f) for e in nonforest)

    @given(connected_multigraphs(max_edges=7))
    @settings(max_examples=60)
    def test_columns_are_fundamental_cycles(self, g):
        self.check_fundamental_cycles(g)

    @given(multigraphs())
    @settings(max_examples=80)
    def test_columns_are_fundamental_cycles_on_graphs_that_may_be_disconnected(self, g):
        self.check_fundamental_cycles(g)

    @pytest.mark.parametrize(
        "kind",
        [
            lambda g: len({v for a in g.arrows for v in (a.tail, a.head)}) < len(g.vertices),
            lambda g: len(g.vertices) - len(spanning_forest(g)) > 1,
            lambda g: not g.arrows,
        ],
        ids=["isolated vertex", "several components", "no arrows"],
    )
    def test_multigraphs_reach_what_connected_ones_never_do(self, kind):
        find(multigraphs(), kind)


class TestOrientedCycles:
    def test_house(self, house_graph):
        cycles = {c.arrows for c in cycles_of(house_graph)}
        assert cycles == {
            ((4, 1), (5, 1), (6, 1)),
            ((1, 1), (2, 1), (3, 1), (4, 1)),
            ((1, 1), (2, 1), (3, 1), (6, -1), (5, -1)),
        }

    def test_triangle(self):
        assert len(cycles_of(cycle_graph(3))) == 1

    def test_two_parallel_arrows(self):
        g = graph(2, [(1, 2), (1, 2)])
        (c,) = cycles_of(g)
        assert c.arrows == ((1, 1), (2, -1))

    def test_self_loop(self):
        g = graph(1, [(1, 1)])
        (c,) = cycles_of(g)
        assert c.arrows == ((1, 1),)

    def test_lowest_arrow_positive(self, house_graph):
        for c in cycles_of(house_graph):
            ident, sign = min(c.arrows)
            assert sign == 1

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_classes_span_cycle_space(self, g):
        cycles = cycles_of(g)
        dim = len(g.arrows) - len(spanning_forest(g))
        if dim == 0:
            assert not cycles
            return
        assert all(len(c.class_vector) == dim for c in cycles)
        assert rank([c.class_vector for c in cycles]) == dim

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_stable_under_reserialization(self, g):
        from zonoharm.formats import parse_graph, serialize_graph

        again = parse_graph(serialize_graph(g))
        assert cycles_of(again) == cycles_of(g)


def _cycle_subset_count(g):
    """Oracle: connected arrow subsets in which every vertex has degree 2."""
    out = 0
    for size in range(1, len(g.arrows) + 1):
        for sel in combinations(g.arrows, size):
            deg = {}
            for a in sel:
                deg[a.tail] = deg.get(a.tail, 0) + 1
                deg[a.head] = deg.get(a.head, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = list(deg)
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            comps = len(verts)
            for a in sel:
                ra, rb = find(a.tail), find(a.head)
                if ra != rb:
                    parent[rb] = ra
                    comps -= 1
            if comps == 1:
                out += 1
    return out


class TestCycleCountOracle:
    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=40)
    def test_matches_degree_two_subset_oracle(self, g):
        assert len(cycles_of(g)) == _cycle_subset_count(g)


class TestThetaSubgraphs:
    def test_house(self, house_graph):
        (triple,) = theta_subgraphs(cycles_of(house_graph))
        lengths = sorted(len(c) for c in triple)
        assert lengths == [3, 4, 5]

    def test_cycle_has_none(self):
        assert theta_subgraphs(cycles_of(cycle_graph(6))) == ()

    def test_theta_graph(self):
        g = graph(2, [(1, 2), (1, 2), (2, 1)])
        assert len(theta_subgraphs(cycles_of(g))) == 1

    def test_complete_graph_k5(self):
        g = graph(5, list(combinations(range(1, 6), 2)))
        cycles = cycles_of(g)
        assert theta_subgraphs(cycles) == theta_triples(cycles)

    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=60)
    def test_matches_triple_oracle(self, g):
        cycles = cycles_of(g)
        assert theta_subgraphs(cycles) == theta_triples(cycles)


def times(*polys):
    """Product of polynomials given as {(i, j): coeff}."""
    acc = {(0, 0): 1}
    for p in polys:
        prod = {}
        for (i, j), c in acc.items():
            for (k, l), d in p.items():
                prod[i + k, j + l] = prod.get((i + k, j + l), 0) + c * d
        acc = prod
    return acc


def minors_kept(fn, *args):
    """``fn(*args)`` and the number of minors the deletion-contraction memo kept."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    stats = pstats.Stats(prof).stats
    steps = sum(
        v[1] for (f, _, name), v in stats.items() if name == "minor" and f.endswith("graphs.py")
    )
    return result, steps


class TestTutte:
    def test_triangle(self):
        t = tutte_polynomial(cycle_graph(3))
        assert t == BivariatePolynomial.from_dict({(2, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_bridge_and_loop(self):
        assert tutte_polynomial(graph(2, [(1, 2)])).terms == ((1, 0, 1),)
        assert tutte_polynomial(graph(1, [(1, 1)])).terms == ((0, 1, 1),)

    def test_house_su2(self, house_graph):
        # a report reads the SU(2) series off the cographical iz series
        assert su2_poincare_polynomial(house_graph) == (1, 2, 2, 1)
        assert Analysis(cographical_arrangement(house_graph)).iz == (1, 2, 2, 1)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_matches_corank_nullity_oracle(self, g):
        assert tutte_polynomial(g) == corank_nullity_tutte(g)

    def test_matches_oracle_on_graphs_that_may_be_disconnected(self):
        # isolated vertices, several components and no arrows at all, which
        # connected_multigraphs never yields
        rng = random.Random(7)
        kinds = set()
        for _ in range(200):
            n = rng.randint(1, 7)
            g = graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 9))])
            if len({v for a in g.arrows for v in (a.tail, a.head)}) < n:
                kinds.add("isolated vertex")
            if len(g.vertices) - len(spanning_forest(g)) > 1:
                kinds.add("several components")
            if not g.arrows:
                kinds.add("no arrows")
            assert tutte_polynomial(g) == corank_nullity_tutte(g)
        assert kinds == {"isolated vertex", "several components", "no arrows"}

    def test_bridges_blocks_and_long_cycles_walk_few_subsets(self):
        # a loop or coloop is one step and a part that ends the columns is
        # finished before the parts in front of it, so the memo keeps a few
        # minors per arrow where deletion-contraction without one would
        # visit about 2^20
        tri = {(2, 0): 1, (1, 0): 1, (0, 1): 1}
        pendant = [(1, 2), (2, 3), (3, 1)] + [(i, i + 1) for i in range(3, 20)]
        chain = [e for k in range(1, 13, 2) for e in ((k, k + 1), (k + 1, k + 2), (k + 2, k))]
        cases = [
            (graph(31, [(i, i + 1) for i in range(1, 31)]), {(30, 0): 1}),
            (cycle_graph(20), {**{(i, 0): 1 for i in range(1, 20)}, (0, 1): 1}),
            (graph(20, pendant), times(tri, {(17, 0): 1})),
            (graph(13, chain), times(*[tri] * 6)),
        ]
        for g, expected in cases:
            t, steps = minors_kept(tutte_polynomial, g)
            assert t == BivariatePolynomial.from_dict(expected)
            assert steps <= 2 * len(g.arrows)
            if len(g.arrows) <= 20:
                va = cographical_arrangement(g)
                assert tutte_of_arrangement(va, enumerate_cocircuits(va)).swap() == t

    def test_pendant_arrows_add_one_step_each(self):
        # W5 with a 10-arrow path hanging off a rim vertex: the path's
        # bridges are the last columns and coloops, each deleted in one step
        # down to W5's own key
        spokes = [(1, i) for i in range(2, 7)] + [(i, i % 5 + 2) for i in range(2, 7)]
        wheel, steps = minors_kept(tutte_polynomial, graph(6, spokes))
        assert wheel == corank_nullity_tutte(graph(6, spokes))
        g = graph(16, spokes + [(i, i + 1) for i in range(6, 16)])
        t, pendant_steps = minors_kept(tutte_polynomial, g)
        wheel_dict = {(i, j): c for i, j, c in wheel.terms}
        assert t == BivariatePolynomial.from_dict(times(wheel_dict, {(10, 0): 1}))
        assert pendant_steps == steps + 10

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_orientation_independent_quantities(self, g):
        flipped = []
        rng = random.Random(11)
        for a in g.arrows:
            if rng.random() < 0.5:
                flipped.append(Arrow(ident=a.ident, tail=a.head, head=a.tail))
            else:
                flipped.append(a)
        g2 = DirectedGraph(vertices=g.vertices, arrows=tuple(flipped))
        assert tutte_polynomial(g2) == tutte_polynomial(g)
        assert su2_poincare_polynomial(g2) == su2_poincare_polynomial(g)
        ctx, ctx2 = Analysis(cographical_arrangement(g)), Analysis(cographical_arrangement(g2))
        assert ctx2.iz == ctx.iz
        assert len(ctx.points) == len(ctx2.points)


class TestSu2Poincare:
    """The SU(2) series from the graph's own Tutte polynomial equals the iz
    series of its cographical arrangement, which is what a report writes."""

    def test_cycles(self):
        for k in range(2, 7):
            g = cycle_graph(k)
            assert su2_poincare_polynomial(g) == (1,) * (k - 1)
            assert Analysis(cographical_arrangement(g)).iz == (1,) * (k - 1)

    def test_self_loop_zero(self):
        g = graph(2, [(1, 2), (2, 2)])
        assert su2_poincare_polynomial(g) == ()
        assert Analysis(cographical_arrangement(g)).iz == ()

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_coefficient_sum_counts_interior_points(self, g):
        ctx = Analysis(cographical_arrangement(g))
        assert ctx.iz == su2_poincare_polynomial(g)
        assert sum(ctx.iz) == len(ctx.points)


class TestTutteOfArrangement:
    def test_empty_ground(self):
        va = VectorArrangement(0, (), Mat(0, 0, ()))
        assert tutte_of_arrangement(va, enumerate_cocircuits(va)).terms == ((0, 0, 1),)

    def test_parallel_elements(self):
        k = 4
        va = VectorArrangement(1, tuple("abcd"), Mat.from_cols([(1,)] * k, rows=1))
        # k parallel elements: x + y + y^2 + ... + y^(k-1)
        expected = {(1, 0): 1}
        expected.update({(0, j): 1 for j in range(1, k)})
        t = tutte_of_arrangement(va, enumerate_cocircuits(va))
        assert t == BivariatePolynomial.from_dict(expected)

    def test_non_unimodular_input_rejected(self):
        # (2) is 0 mod 2, so GF(2) ranks would read it as a loop: the Tutte
        # polynomial needs the cocircuits, which reject the input
        va = VectorArrangement(1, ("a", "b"), Mat.from_cols([(1,), (2,)], rows=1))
        with pytest.raises(NotTotallyUnimodularError) as info:
            enumerate_cocircuits(va)
        assert info.value.determinant == 2

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in DATA.iterdir() if p.suffix in (".arr", ".graph")) + ["random"]
    )
    def test_equals_bareiss_oracle(self, name):
        # house_sheared.arr has even entries: its GF(2) ranks agree with
        # the ranks over Q only because every basis has determinant +-1
        if name == "random":
            rng = random.Random(2024)
            vas = [cographical_arrangement(random_connected_multigraph(rng, 7)) for _ in range(20)]
        elif name.endswith(".arr"):
            vas = [parse_arrangement((DATA / name).read_text())]
        else:
            vas = [cographical_arrangement(parse_graph((DATA / name).read_text()))]
        for va in vas:
            assert tutte_of_arrangement(va, enumerate_cocircuits(va)) == bareiss_tutte(va)

    def test_eighteen_columns_rank_seven(self):
        # a 12-cycle with 6 chords: the Bareiss corank-nullity sum took 15 s
        # here (Python 3.11.7, 2-core x86-64 VM), the memoised GF(2)
        # deletion-contraction 0.01 s with 1,225 minors kept
        edges = [(i, i % 12 + 1) for i in range(1, 13)]
        edges += [(1, 7), (2, 5), (3, 10), (4, 9), (6, 11), (8, 12)]
        g = graph(12, edges)
        va = cographical_arrangement(g)
        assert (va.lattice_rank, va.size) == (7, 18)
        assert tutte_of_arrangement(va, enumerate_cocircuits(va)).swap() == tutte_polynomial(g)

    @pytest.mark.parametrize("name", ["K7", "W10", "11-cycle with 9 chords"])
    def test_spanning_trees_and_all_subsets_at_the_cap_and_past_it(self, name):
        # bareiss_tutte is out of reach at 20 columns: T_G(1, 1) counts the
        # spanning trees, the determinant of a reduced Laplacian (Kirchhoff),
        # and T_G(2, 2) counts every subset of the arrows
        chords = [(1, 6), (2, 8), (3, 10), (4, 7), (5, 9), (6, 11), (7, 10), (8, 11), (9, 3)]
        g = {
            "K7": complete_graph(7),
            "W10": wheel_graph(10),
            "11-cycle with 9 chords": graph(11, [(i, i % 11 + 1) for i in range(1, 12)] + chords),
        }[name]
        assert len(g.arrows) >= 20
        t = tutte_polynomial(g)
        rows = signed_incidence(g)[1:]
        laplacian = [[sum(map(mul, u, v)) for v in rows] for u in rows]
        assert t.eval_at(1, 1) == det(laplacian)
        assert t.eval_at(2, 2) == 2 ** len(g.arrows)

    def test_cocircuits_passed_in_lift_the_cap(self):
        # K7: 21 columns of rank 15, past the cap that the scan's callers
        # check; T_A(0, 1) = T_G(1, 0) = 6!, and T(1, 1) = 7^5 spanning
        # trees (Cayley)
        va = cographical_arrangement(complete_graph(7))
        assert (va.size, va.lattice_rank) == (21, 15)
        t = tutte_of_arrangement(va, enumerate_cocircuits(va))
        assert (t.eval_at(0, 1), t.eval_at(1, 1)) == (720, 7**5)
        assert t.swap() == tutte_polynomial(complete_graph(7))

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_swap_duality_with_graph(self, g):
        va = cographical_arrangement(g)
        assert tutte_of_arrangement(va, enumerate_cocircuits(va)).swap() == tutte_polynomial(g)

    def test_twenty_seeded_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(20):
            g = random_connected_multigraph(rng, 7)
            va = cographical_arrangement(g)
            assert tutte_of_arrangement(va, enumerate_cocircuits(va)).swap() == tutte_polynomial(g)


class TestIncidenceKernel:
    def test_cycle_space_dimension_on_twenty_random_graphs(self):
        # kernel of the vertex-arrow incidence matrix has dimension
        # |A| - rank, and the rank equals the greedy spanning-forest size
        from zonoharm.linalg import integer_kernel

        rng = random.Random(99)
        for _ in range(20):
            g = random_connected_multigraph(rng, 7)
            kern = integer_kernel(signed_incidence(g), len(g.arrows))
            assert len(kern) == len(g.arrows) - len(spanning_forest(g))
