import random
from itertools import combinations

from hypothesis import given, settings

from oracles import theta_triples, violating_minor
from strategies import connected_multigraphs
from zonoharm.arrangement import interior_lattice_points
from zonoharm.graphs import (
    Arrow,
    BivariatePolynomial,
    DirectedGraph,
    cographical_arrangement,
    enumerate_oriented_cycles,
    graph_rank,
    spanning_forest,
    su2_poincare_polynomial,
    theta_subgraphs,
    tutte_of_arrangement,
    tutte_polynomial,
)
from zonoharm.linalg import Mat, rank


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
        assert graph_rank(house_graph) == 4

    def test_cycle(self):
        assert graph_rank(cycle_graph(5)) == 4

    def test_edgeless(self):
        assert graph_rank(graph(4, [])) == 0


class TestCographical:
    def test_house_columns(self, house_graph):
        va = cographical_arrangement(house_graph)
        # greedy forest {1,2,3,5}; coordinates by fundamental cycles of 4 and 6
        assert va.lattice_rank == 2
        assert va.columns.col_list() == [[1, -1], [1, -1], [1, -1], [1, 0], [0, 1], [0, 1]]

    def test_coherent_cycle_is_all_ones(self):
        va = cographical_arrangement(cycle_graph(5))
        assert va.lattice_rank == 1
        assert va.columns.row_list() == [[1, 1, 1, 1, 1]]

    def test_tree_rank_zero(self):
        va = cographical_arrangement(graph(4, [(1, 2), (2, 3), (3, 4)]))
        assert va.lattice_rank == 0
        assert interior_lattice_points(va).points == ((),)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_always_totally_unimodular(self, g):
        assert violating_minor(cographical_arrangement(g)) is None

    def test_forest_is_greedy(self, house_graph):
        assert spanning_forest(house_graph) == (1, 2, 3, 5)


class TestOrientedCycles:
    def test_house(self, house_graph):
        cycles = {c.arrows for c in enumerate_oriented_cycles(house_graph)}
        assert cycles == {
            ((4, 1), (5, 1), (6, 1)),
            ((1, 1), (2, 1), (3, 1), (4, 1)),
            ((1, 1), (2, 1), (3, 1), (6, -1), (5, -1)),
        }

    def test_triangle(self):
        assert len(enumerate_oriented_cycles(cycle_graph(3))) == 1

    def test_two_parallel_arrows(self):
        g = graph(2, [(1, 2), (1, 2)])
        (c,) = enumerate_oriented_cycles(g)
        assert c.arrows == ((1, 1), (2, -1))

    def test_self_loop(self):
        g = graph(1, [(1, 1)])
        (c,) = enumerate_oriented_cycles(g)
        assert c.arrows == ((1, 1),)

    def test_lowest_arrow_positive(self, house_graph):
        for c in enumerate_oriented_cycles(house_graph):
            ident, sign = min(c.arrows)
            assert sign == 1

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_classes_span_cycle_space(self, g):
        cycles = enumerate_oriented_cycles(g)
        dim = len(g.arrows) - graph_rank(g)
        if dim == 0:
            assert not cycles
            return
        m = Mat.from_rows([c.class_vector for c in cycles], cols=dim)
        assert rank(m) == dim

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_stable_under_reserialization(self, g):
        from zonoharm.formats import parse_graph, serialize_graph

        again = parse_graph(serialize_graph(g))
        assert enumerate_oriented_cycles(again) == enumerate_oriented_cycles(g)


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
        assert len(enumerate_oriented_cycles(g)) == _cycle_subset_count(g)


class TestThetaSubgraphs:
    def test_house(self, house_graph):
        (triple,) = theta_subgraphs(house_graph)
        lengths = sorted(len(c) for c in triple)
        assert lengths == [3, 4, 5]

    def test_cycle_has_none(self):
        assert theta_subgraphs(cycle_graph(6)) == ()

    def test_theta_graph(self):
        g = graph(2, [(1, 2), (1, 2), (2, 1)])
        assert len(theta_subgraphs(g)) == 1

    def test_complete_graph_k5(self):
        g = graph(5, list(combinations(range(1, 6), 2)))
        cycles = enumerate_oriented_cycles(g)
        assert theta_subgraphs(g, cycles) == theta_triples(cycles)

    @given(connected_multigraphs(max_edges=8))
    @settings(max_examples=60)
    def test_matches_triple_oracle(self, g):
        cycles = enumerate_oriented_cycles(g)
        assert theta_subgraphs(g, cycles) == theta_triples(cycles)


class TestTutte:
    def test_triangle(self):
        t = tutte_polynomial(cycle_graph(3))
        assert t == BivariatePolynomial.from_dict({(2, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_bridge_and_loop(self):
        assert tutte_polynomial(graph(2, [(1, 2)])).terms == ((1, 0, 1),)
        assert tutte_polynomial(graph(1, [(1, 1)])).terms == ((0, 1, 1),)

    def test_house_su2(self, house_graph):
        assert su2_poincare_polynomial(house_graph) == (1, 2, 2, 1)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_matches_corank_nullity_oracle(self, g):
        assert tutte_polynomial(g) == corank_nullity_tutte(g)

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
        va, va2 = cographical_arrangement(g), cographical_arrangement(g2)
        assert len(interior_lattice_points(va)) == len(interior_lattice_points(va2))


class TestSu2Poincare:
    def test_cycles(self):
        for k in range(2, 7):
            assert su2_poincare_polynomial(cycle_graph(k)) == (1,) * (k - 1)

    def test_self_loop_zero(self):
        g = graph(2, [(1, 2), (2, 2)])
        assert su2_poincare_polynomial(g) == ()

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_coefficient_sum_counts_interior_points(self, g):
        total = sum(su2_poincare_polynomial(g))
        va = cographical_arrangement(g)
        assert total == len(interior_lattice_points(va))


class TestTutteOfArrangement:
    def test_empty_ground(self):
        from zonoharm.arrangement import VectorArrangement

        va = VectorArrangement(0, (), Mat.zero(0, 0))
        assert tutte_of_arrangement(va).terms == ((0, 0, 1),)

    def test_parallel_elements(self):
        from zonoharm.arrangement import VectorArrangement

        k = 4
        va = VectorArrangement(1, tuple("abcd"), Mat.from_rows([[1] * k]))
        # k parallel elements: x + y + y^2 + ... + y^(k-1)
        expected = {(1, 0): 1}
        expected.update({(0, j): 1 for j in range(1, k)})
        assert tutte_of_arrangement(va) == BivariatePolynomial.from_dict(expected)

    def test_size_cap(self):
        from zonoharm.arrangement import VectorArrangement
        from zonoharm.errors import SizeExceededError
        import pytest

        va = VectorArrangement(1, tuple(f"a{i}" for i in range(21)), Mat.from_rows([[1] * 21]))
        with pytest.raises(SizeExceededError):
            tutte_of_arrangement(va)

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=25)
    def test_swap_duality_with_graph(self, g):
        va = cographical_arrangement(g)
        assert tutte_of_arrangement(va).swap() == tutte_polynomial(g)

    def test_twenty_seeded_random_graphs(self):
        from zonoharm.verification import random_connected_multigraph

        rng = random.Random(2024)
        for _ in range(20):
            g = random_connected_multigraph(rng, 7)
            va = cographical_arrangement(g)
            assert tutte_of_arrangement(va).swap() == tutte_polynomial(g)


class TestIncidenceKernel:
    def test_cycle_space_dimension_on_twenty_random_graphs(self):
        # kernel of the vertex-arrow incidence matrix has dimension
        # |A| - rank, and the rank equals the greedy spanning-forest size
        from zonoharm.linalg import integer_kernel
        from zonoharm.verification import random_connected_multigraph

        rng = random.Random(99)
        for _ in range(20):
            g = random_connected_multigraph(rng, 7)
            vindex = {v: i for i, v in enumerate(g.vertices)}
            rows = [[0] * len(g.arrows) for _ in g.vertices]
            for j, a in enumerate(g.arrows):
                rows[vindex[a.head]][j] += 1
                rows[vindex[a.tail]][j] -= 1
            kern = integer_kernel(rows, len(g.arrows))
            assert len(kern) == len(g.arrows) - len(spanning_forest(g))
            assert len(kern) == len(g.arrows) - graph_rank(g)
