"""Directed multigraphs and their cographical vector arrangements.

The cycle space H^1(G; Z) is coordinatized by the fundamental cycles of a
deterministic spanning forest (greedy over ascending arrow ids), so every
derived arrangement is reproducible.  One walk from the root of each tree
gives every vertex its signed root path, and the forest part of each
fundamental cycle is the difference of two such paths, as in a network
matrix.  Oriented cycles follow the convention
that the lowest-id arrow in a cycle is traversed positively; this fixes one
representative per opposite pair.

Terminology note: a bridge of the graph is a loop of the cographical
arrangement, and a self-loop of the graph is a coloop of it.  Code and reports
always use the arrangement-level meaning of loop/coloop.

The Tutte polynomial comes from one deletion-contraction on the columns
mod 2, which have the matroid of the columns over Q once the cocircuits
certify that every basis has determinant +-1, so its caller passes them
as the certificate.  Each minor is computed once, under a key read off its
labelled matroid, so bridges, self-loops and long cycles stay cheap.  The
internal zonotopal Hilbert series, t^(|A|-r) T(0, 1/t), is read off the
polynomial's x^0 terms.  A graph's polynomial is its cographical
arrangement's with x and y swapped, once ``Analysis.tutte_duality``
certifies the coordinatisation.

``Arrow``, ``OrientedCycle`` and ``BivariatePolynomial`` are named tuples.
``DirectedGraph`` validates its vertices and arrows and sorts the arrows on
construction; it is a ``linalg.Record``, immutable by convention: nothing
reassigns a field.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .arrangement import VectorArrangement
from .linalg import Mat, Record


class Arrow(NamedTuple):
    ident: int
    tail: str
    head: str


class DirectedGraph(Record):
    """Vertices plus an ordered list of arrows; parallels and self-loops allowed."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: tuple, arrows: tuple):
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ValueError("duplicate vertex labels")
        ids = [a.ident for a in arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        for a in arrows:
            if a.tail not in vset or a.head not in vset:
                raise ValueError(f"arrow {a.ident} references an unknown vertex")
        self.vertices = vertices
        self.arrows = tuple(sorted(arrows, key=lambda a: a.ident))


class OrientedCycle(NamedTuple):
    """A simple cycle as signed arrows in canonical cyclic order.

    ``arrows`` starts at the lowest arrow id, which always carries sign +1.
    ``class_vector`` holds the cycle's coordinates in the fundamental-cycle
    basis of the ambient graph.
    """

    arrows: tuple  # ((arrow_id, sign), ...)
    class_vector: tuple

    @property
    def c_plus(self) -> tuple:
        return tuple(i for i, s in self.arrows if s == 1)

    @property
    def c_minus(self) -> tuple:
        return tuple(i for i, s in self.arrows if s == -1)

    def __len__(self):
        return len(self.arrows)


def spanning_forest(g: DirectedGraph) -> tuple:
    """Arrow ids of the greedy spanning forest (ascending ids, union-find)."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest = []
    for a in g.arrows:
        tail, head = find(a.tail), find(a.head)
        if tail != head:
            parent[head] = tail
            forest.append(a.ident)
    return tuple(forest)


def cographical_arrangement(g: DirectedGraph) -> VectorArrangement:
    """The arrangement of arrow classes in the cycle space of the graph.

    Coordinate k is the coefficient in the fundamental cycle of f, the k-th
    non-forest arrow of the greedy spanning forest: f itself with +1, and
    the forest path from f's head back to its tail.  One walk from the root
    of each tree records every vertex's signed root path, and the path from
    f's head to its tail is the path to the tail minus the path to the head.
    Fundamental-cycle matrices are network matrices, so the result is
    totally unimodular.
    """
    forest = set(spanning_forest(g))
    tree = {v: [] for v in g.vertices}
    for a in g.arrows:
        if a.ident in forest:
            tree[a.tail].append((a.head, a.ident, 1))
            tree[a.head].append((a.tail, a.ident, -1))
    path: dict = {}  # vertex -> {forest arrow id: its sign on the path from the root}
    for root in g.vertices:
        if root not in path:
            path[root], stack = {}, [root]
            while stack:
                v = stack.pop()
                for w, ident, sign in tree[v]:
                    if w not in path:
                        path[w] = {**path[v], ident: sign}
                        stack.append(w)
    nonforest = [f for f in g.arrows if f.ident not in forest]
    cols = [
        tuple(
            path[f.tail].get(a.ident, 0) - path[f.head].get(a.ident, 0) + int(a is f)
            for f in nonforest
        )
        for a in g.arrows
    ]
    return VectorArrangement(
        lattice_rank=len(nonforest),
        ground=tuple(str(a.ident) for a in g.arrows),
        columns=Mat.from_cols(cols, rows=len(nonforest)),
    )


def enumerate_oriented_cycles(g: DirectedGraph, forest) -> tuple:
    """All simple oriented cycles, one representative per opposite pair.

    Anchored DFS: each cycle is reported starting at its lowest arrow id with
    sign +1, and only arrows with larger ids may appear elsewhere, so each
    {C, C-bar} pair is produced exactly once.  ``forest`` is
    ``spanning_forest(g)``, whose non-forest arrows give the class vectors
    their coordinates.
    """
    incidence = {v: [] for v in g.vertices}
    for a in g.arrows:
        if a.tail != a.head:
            incidence[a.tail].append((a, a.head, 1))
            incidence[a.head].append((a, a.tail, -1))
    found = []

    for anchor in g.arrows:
        if anchor.tail == anchor.head:
            found.append(((anchor.ident, 1),))
            continue
        start = anchor.tail

        def dfs(current, visited, path):
            for b, w, sign in incidence[current]:
                if b.ident <= anchor.ident:
                    continue
                if w == start:
                    found.append(tuple(path + [(b.ident, sign)]))
                elif w not in visited:
                    dfs(w, visited | {w}, path + [(b.ident, sign)])

        dfs(anchor.head, {start, anchor.head}, [(anchor.ident, 1)])

    # coordinate j of a class is the signed coefficient of the j-th
    # non-forest arrow in the cycle
    forest = set(forest)
    nonforest = tuple(a.ident for a in g.arrows if a.ident not in forest)
    cycles = []
    for path in sorted(found, key=lambda p: (len(p), p)):
        coeffs = dict(path)
        vec = tuple(coeffs.get(nf_id, 0) for nf_id in nonforest)
        cycles.append(OrientedCycle(arrows=tuple(path), class_vector=vec))
    return tuple(cycles)


def theta_subgraphs(cycles) -> tuple:
    """Unordered triples of oriented ``cycles`` whose classes admit signs summing to zero.

    v_i + s v_j + t v_k = 0 means v_k = -t (v_i + s v_j), so each pair i < j
    and sign s looks its sum up among the classes and their negations.  The
    triples come out sorted by their indices (i, j, k) in ``cycles``.
    """
    vecs = [c.class_vector for c in cycles]
    where: dict = {}  # class vector or its negation -> indices of the cycles
    for k, v in enumerate(vecs):
        where.setdefault(v, []).append(k)
        where.setdefault(tuple(-x for x in v), []).append(k)
    found = set()
    for i, j in combinations(range(len(vecs)), 2):
        vi, vj = vecs[i], vecs[j]
        for s in (1, -1):
            for k in where.get(tuple(a + s * b for a, b in zip(vi, vj)), ()):
                if k > j:
                    found.add((i, j, k))
    return tuple((cycles[i], cycles[j], cycles[k]) for i, j, k in sorted(found))


class BivariatePolynomial(NamedTuple):
    """Bivariate polynomial with arbitrary-precision integer coefficients."""

    terms: tuple  # sorted ((i, j, coeff), ...), no zero coefficients

    @staticmethod
    def from_dict(d: dict) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple(sorted((i, j, c) for (i, j), c in d.items() if c)))

    def eval_at(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for i, j, c in self.terms)

    def swap(self) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple(sorted((j, i, c) for i, j, c in self.terms)))


def iz_hilbert_series(va: VectorArrangement, tutte: BivariatePolynomial) -> tuple:
    """Coefficients of t^(|A|-r) * T(0, 1/t) from ``tutte``, the Tutte
    polynomial of ``va``: the x^0 y^j term gives t^(|A|-r-j)."""
    nullity = va.size - va.lattice_rank
    ys = {j: c for i, j, c in tutte.terms if i == 0}
    coeffs = [ys.get(nullity - m, 0) for m in range(nullity + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def tutte_of_arrangement(va: VectorArrangement, cocircuits) -> BivariatePolynomial:
    """Tutte polynomial of the column matroid, by deletion-contraction on the columns mod 2.

    ``cocircuits``, the arrangement's as ``enumerate_cocircuits`` gives
    them, are its certificate that every basis of columns has determinant
    +-1; they are not read.  The columns span Q^r, so an independent subset
    extends to such a basis, which stays independent mod 2: the columns mod 2
    have the same matroid as over Q.
    """
    parity = [sum((x & 1) << i for i, x in enumerate(c)) for c in va.columns.data]
    return _binary_tutte(parity)


def _binary_tutte(parity: list) -> BivariatePolynomial:
    """Tutte polynomial of the matroid of the GF(2) columns ``parity``.

    Deletion-contraction on the last column e, with every minor kept under a
    key that depends only on its labelled matroid: each column's coordinates
    in the greedy basis of the columns before it, a column new to that basis
    reading as the next power of 2 (Haggard, Pearce and Royle, "Computing
    Tutte polynomials", ACM TOMS 37(3), 2010).  Deleting the last column
    leaves the key of the rest.  A loop (e = 0) gives y times the deletion's
    polynomial, a coloop (a bit that no other column holds) x times it, and
    any other e the deletion's plus the contraction's, which xors e into
    every column that holds e's lowest bit.  So a loop or coloop takes one
    step, and a direct sum of parts in column order costs the sum of its
    parts' minors, not their product.  The memo lives for one call.
    """
    memo: dict = {}

    def key(cols) -> tuple:
        basis, out = [], []  # basis: (pivot bit, reduced vector, its coordinates)
        for c in cols:
            m = 0
            for bit, v, coords in basis:
                if c & bit:
                    c, m = c ^ v, m ^ coords
            if c:
                new = 1 << len(basis)
                basis.append((c & -c, c, new ^ m))
                m = new
            out.append(m)
        return tuple(out)

    def tutte(cols: tuple) -> dict:
        if not cols:
            return {(0, 0): 1}
        if cols not in memo:
            memo[cols] = minor(cols)
        return memo[cols]

    def minor(cols: tuple) -> dict:
        rest, e = cols[:-1], cols[-1]
        t = tutte(rest)
        if not e:
            return {(i, j + 1): c for (i, j), c in t.items()}
        if not any(c & e for c in rest):
            return {(i + 1, j): c for (i, j), c in t.items()}
        t = dict(t)
        low = e & -e
        for ij, c in tutte(key([c ^ e if c & low else c for c in rest])).items():
            t[ij] = t.get(ij, 0) + c
        return t

    return BivariatePolynomial.from_dict(tutte(key(parity)))
