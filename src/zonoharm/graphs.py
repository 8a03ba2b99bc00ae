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

The Tutte polynomial comes from one corank-nullity walk with every rank
taken over GF(2), on the columns mod 2, which is exact once the cocircuits
certify that every basis has determinant +-1.  The walk runs once per
connected part of the matroid, on the part's dual when that has the lower
rank, so bridges, self-loops and long cycles stay cheap.  A graph's
polynomial is its cographical arrangement's with x and y swapped, once
``Analysis.tutte_duality`` certifies the coordinatisation.

``Arrow``, ``OrientedCycle`` and ``BivariatePolynomial`` are named tuples.
``DirectedGraph`` validates its vertices and arrows and sorts the arrows on
construction; it is a plain class, immutable by convention: nothing
reassigns a field.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .arrangement import VectorArrangement, enumerate_cocircuits
from .errors import SizeExceededError
from .funcspace import binom_int
from .linalg import Mat

TUTTE_ARRANGEMENT_MAX_GROUND = 20


class Arrow(NamedTuple):
    ident: int
    tail: str
    head: str


class DirectedGraph:
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

    def _key(self) -> tuple:
        return (self.vertices, self.arrows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DirectedGraph(vertices={self.vertices!r}, arrows={self.arrows!r})"


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

    def y_slice(self, i: int) -> dict:
        """Coefficients {j: c} of x^i."""
        return {j: c for ii, j, c in self.terms if ii == i}


def check_tutte_size(va: VectorArrangement) -> None:
    """Raise SizeExceededError if ``va`` is past the corank-nullity sum's cap."""
    if va.size > TUTTE_ARRANGEMENT_MAX_GROUND:
        raise SizeExceededError(
            f"corank-nullity sum limited to {TUTTE_ARRANGEMENT_MAX_GROUND} columns"
        )


def tutte_of_arrangement(va: VectorArrangement, cocircuits=None) -> BivariatePolynomial:
    """Tutte polynomial of the column matroid by the corank-nullity sum, on GF(2) ranks.

    The cocircuits certify that every basis of columns has determinant +-1;
    unless they are passed, ``enumerate_cocircuits`` runs here and raises
    NotTotallyUnimodularError on any other input.  The columns span Q^r, so
    an independent subset extends to such a basis, which stays independent
    mod 2: every subset has the same rank over GF(2) as over Q.
    """
    check_tutte_size(va)
    if cocircuits is None:
        enumerate_cocircuits(va)
    parity = [sum((x & 1) << i for i, x in enumerate(c)) for c in va.columns.col_list()]
    return _corank_nullity(parity)


def _corank_nullity(parity: list) -> BivariatePolynomial:
    """Tutte polynomial of the matroid of the GF(2) columns ``parity``.

    Elimination picks a basis B of columns and the fundamental circuit of
    every other column.  Columns that share such a circuit are joined into a
    part; the matroid is the direct sum of its parts, so T is the product of
    theirs, and a loop or coloop is a part with T = y or x.  A part whose
    rank exceeds its nullity is walked as its dual and x, y swapped: with
    coordinates [I | A] on B, the dual is [A^T | I] (Oxley, *Matroid Theory*,
    2.2.8), so column k becomes the set of circuits that hold it.  A walk
    stops growing a subset once it spans, so the lower rank is the cheaper.
    """
    basis, circuits, parts = [], {}, []  # basis: (reduced vector, columns it sums)
    for k, v in enumerate(parity):
        m = 1 << k
        for b, bm in basis:
            if v ^ b < v:
                v, m = v ^ b, m ^ bm
        if v:
            basis = sorted((*basis, (v, m)), reverse=True)
            m = 1 << k
        else:
            circuits[k] = m
        for p in [p for p in parts if p & m]:
            parts.remove(p)
            m |= p
        parts.append(m)
    acc = {(0, 0): 1}
    for part in parts:
        cols = [k for k in range(len(parity)) if part >> k & 1]
        rest = [k for k in cols if k in circuits]
        if 2 * len(rest) >= len(cols):
            t = _walk([parity[k] for k in cols], len(cols) - len(rest))
        else:
            dual = [sum(1 << i for i, h in enumerate(rest) if circuits[h] >> k & 1) for k in cols]
            t = {(j, i): c for (i, j), c in _walk(dual, len(rest)).items()}
        prod: dict = {}
        for (i, j), c in acc.items():
            for (p, q), d in t.items():
                prod[i + p, j + q] = prod.get((i + p, j + q), 0) + c * d
        acc = prod
    return BivariatePolynomial.from_dict(acc)


def _walk(parity: list, r: int) -> dict:
    """Corank-nullity sum {(i, j): coeff} of the GF(2) columns ``parity`` of rank ``r``.

    One depth-first walk over the subsets keeps an xor basis of the columns'
    bitmasks and counts the subsets of each (rank, size), all supersets of a
    spanning subset at once, and (x-1)^(r-rank) (y-1)^(size-rank) is expanded
    once per pair.
    """
    n = len(parity)
    counts = [[0] * (n + 1) for _ in range(r + 1)]  # counts[rank][size]

    def walk(start, basis, size):
        # basis: reduced vectors with distinct leading bits, in descending order
        if len(basis) == r:  # every superset has full rank as well
            m = n - start
            for t in range(m + 1):
                counts[r][size + t] += binom_int(m, t)
            return
        counts[len(basis)][size] += 1
        for k in range(start, n):
            v = parity[k]
            for b in basis:
                v = min(v, v ^ b)
            walk(k + 1, tuple(sorted((*basis, v), reverse=True)) if v else basis, size + 1)

    walk(0, (), 0)
    acc: dict = {}
    for rk, row in enumerate(counts):
        for size, count in enumerate(row):
            if not count:
                continue
            p, q = r - rk, size - rk
            # expand count * (x-1)^p (y-1)^q
            for i in range(p + 1):
                ci = count * binom_int(p, i) * (-1) ** (p - i)
                for j in range(q + 1):
                    acc[(i, j)] = acc.get((i, j), 0) + ci * binom_int(q, j) * (-1) ** (q - j)
    return acc
