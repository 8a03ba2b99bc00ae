"""Directed multigraphs and their cographical vector arrangements.

The cycle space H^1(G; Z) is coordinatized by the fundamental cycles of a
deterministic spanning forest (greedy over ascending arrow ids), so every
derived arrangement is reproducible.  Oriented cycles follow the convention
that the lowest-id arrow in a cycle is traversed positively; this fixes one
representative per opposite pair.

Terminology note: a bridge of the graph is a loop of the cographical
arrangement, and a self-loop of the graph is a coloop of it.  Code and reports
always use the arrangement-level meaning of loop/coloop.

The graph's Tutte polynomial comes from memoized deletion-contraction.  An
arrangement's comes from the corank-nullity sum with every rank taken over
GF(2), which is exact once the cocircuits certify that every basis has
determinant +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import VectorArrangement, enumerate_cocircuits
from .errors import SizeExceededError
from .funcspace import binom_int
from .linalg import Mat

TUTTE_ARRANGEMENT_MAX_GROUND = 20


@dataclass(frozen=True)
class Arrow:
    ident: int
    tail: str
    head: str


@dataclass(frozen=True)
class DirectedGraph:
    """Vertices plus an ordered list of arrows; parallels and self-loops allowed."""

    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        ids = [a.ident for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        for a in self.arrows:
            if a.tail not in vset or a.head not in vset:
                raise ValueError(f"arrow {a.ident} references an unknown vertex")
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=lambda a: a.ident)))


@dataclass(frozen=True)
class OrientedCycle:
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


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def connected_components(g: DirectedGraph) -> int:
    uf = _UnionFind(g.vertices)
    count = len(g.vertices)
    for a in g.arrows:
        if uf.union(a.tail, a.head):
            count -= 1
    return count


def graph_rank(g: DirectedGraph) -> int:
    """Number of vertices minus number of connected components."""
    return len(g.vertices) - connected_components(g)


def spanning_forest(g: DirectedGraph) -> tuple:
    """Arrow ids of the greedy spanning forest (ascending ids, union-find)."""
    uf = _UnionFind(g.vertices)
    forest = []
    for a in g.arrows:
        if a.tail != a.head and uf.union(a.tail, a.head):
            forest.append(a.ident)
    return tuple(forest)


def _forest_path(g: DirectedGraph, forest_ids, start, goal) -> list:
    """Signed arrows of the forest path from start to goal (may be empty)."""
    if start == goal:
        return []
    adj = {}
    for a in g.arrows:
        if a.ident in forest_ids:
            adj.setdefault(a.tail, []).append((a, a.head, 1))
            adj.setdefault(a.head, []).append((a, a.tail, -1))
    prev = {start: None}
    queue = [start]
    while queue:
        v = queue.pop(0)
        if v == goal:
            break
        for a, w, sign in adj.get(v, ()):
            if w not in prev:
                prev[w] = (v, a.ident, sign)
                queue.append(w)
    if goal not in prev:
        raise ValueError("vertices lie in different forest components")
    path = []
    v = goal
    while prev[v] is not None:
        u, ident, sign = prev[v]
        path.append((ident, sign))
        v = u
    path.reverse()
    return path


def fundamental_cycles(g: DirectedGraph):
    """One signed cycle per non-forest arrow, the arrow itself traversed +1."""
    forest_ids = set(spanning_forest(g))
    cycles = []
    for a in g.arrows:
        if a.ident in forest_ids:
            continue
        cycle = [(a.ident, 1)] + _forest_path(g, forest_ids, a.head, a.tail)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cographical_arrangement(g: DirectedGraph) -> VectorArrangement:
    """The arrangement of arrow classes in the cycle space of the graph.

    Coordinates come from the fundamental cycles of the greedy spanning
    forest; the column of arrow a records its signed coefficient in each
    fundamental cycle.  Fundamental-cycle matrices are network matrices, so
    the result is totally unimodular.
    """
    cycles = fundamental_cycles(g)
    r = len(cycles)
    coeff_maps = [dict(c) for c in cycles]
    cols = []
    for a in g.arrows:
        cols.append(tuple(cm.get(a.ident, 0) for cm in coeff_maps))
    return VectorArrangement(
        lattice_rank=r,
        ground=tuple(str(a.ident) for a in g.arrows),
        columns=Mat.from_cols(cols, rows=r),
    )


def enumerate_oriented_cycles(g: DirectedGraph) -> tuple:
    """All simple oriented cycles, one representative per opposite pair.

    Anchored DFS: each cycle is reported starting at its lowest arrow id with
    sign +1, and only arrows with larger ids may appear elsewhere, so each
    {C, C-bar} pair is produced exactly once.
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
    nonforest = _nonforest_ids(g)
    cycles = []
    for path in sorted(found, key=lambda p: (len(p), p)):
        coeffs = dict(path)
        vec = tuple(coeffs.get(nf_id, 0) for nf_id in nonforest)
        cycles.append(OrientedCycle(arrows=tuple(path), class_vector=vec))
    return tuple(cycles)


def _nonforest_ids(g: DirectedGraph) -> tuple:
    forest_ids = set(spanning_forest(g))
    return tuple(a.ident for a in g.arrows if a.ident not in forest_ids)


def theta_subgraphs(g: DirectedGraph, cycles=None) -> tuple:
    """Unordered cycle triples whose classes admit signs summing to zero.

    v_i + s v_j + t v_k = 0 means v_k = -t (v_i + s v_j), so each pair i < j
    and sign s looks its sum up among the classes and their negations.  The
    triples come out sorted by their indices (i, j, k) in ``cycles``.
    """
    if cycles is None:
        cycles = enumerate_oriented_cycles(g)
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


@dataclass(frozen=True)
class BivariatePolynomial:
    """Bivariate polynomial with arbitrary-precision integer coefficients."""

    terms: tuple  # sorted ((i, j, coeff), ...), no zero coefficients

    @staticmethod
    def from_dict(d: dict) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple(sorted((i, j, c) for (i, j), c in d.items() if c)))

    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial(())

    def coeff(self, i: int, j: int) -> int:
        for a, b, c in self.terms:
            if (a, b) == (i, j):
                return c
        return 0

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        d = {(i, j): c for i, j, c in self.terms}
        for i, j, c in other.terms:
            d[(i, j)] = d.get((i, j), 0) + c
        return BivariatePolynomial.from_dict(d)

    def shift(self, di: int, dj: int) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple((i + di, j + dj, c) for i, j, c in self.terms))

    def eval_at(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for i, j, c in self.terms)

    def swap(self) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple(sorted((j, i, c) for i, j, c in self.terms)))

    def x_slice(self, j: int) -> dict:
        """Coefficients {i: c} of y^j."""
        return {i: c for i, jj, c in self.terms if jj == j}

    def y_slice(self, i: int) -> dict:
        return {j: c for ii, j, c in self.terms if ii == i}


def _components_count(n: int, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            comp -= 1
    return comp


def _canonical_key(n: int, edges: tuple):
    """Memo key: degree-refined vertex relabeling of the edge multiset.

    The refinement is not full isomorphism; isomorphic graphs may get distinct
    keys (a missed memo hit), but any two graphs sharing a key are identical
    after the relabeling, so lookups are always sound.
    """
    used = sorted({v for e in edges for v in e})
    if not used:
        return ()
    colors = {}
    loops = {v: 0 for v in used}
    deg = {v: 0 for v in used}
    for u, v in edges:
        if u == v:
            loops[u] += 1
            deg[u] += 2
        else:
            deg[u] += 1
            deg[v] += 1
    for v in used:
        colors[v] = (deg[v], loops[v])
    for _ in range(len(used)):
        ranks = {c: i for i, c in enumerate(sorted(set(colors.values())))}
        new = {}
        for v in used:
            nbr = []
            for u, w in edges:
                if u == v and w != v:
                    nbr.append(ranks[colors[w]])
                elif w == v and u != v:
                    nbr.append(ranks[colors[u]])
            new[v] = (ranks[colors[v]], tuple(sorted(nbr)))
        if len(set(new.values())) == len(set(colors.values())):
            colors = new
            break
        colors = new
    order = sorted(used, key=lambda v: (colors[v], v))
    relabel = {v: i for i, v in enumerate(order)}
    return tuple(sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges))


def _tutte_edges(n: int, edges: tuple, memo: dict) -> BivariatePolynomial:
    key = _canonical_key(n, edges)
    hit = memo.get(key)
    if hit is not None:
        return hit
    loops = sum(1 for u, v in edges if u == v)
    proper = [e for e in edges if e[0] != e[1]]
    base_comp = _components_count(n, proper)
    pivot = None
    bridges = 0
    for idx, e in enumerate(proper):
        rest = proper[:idx] + proper[idx + 1 :]
        if _components_count(n, rest) > base_comp:
            bridges += 1
        elif pivot is None:
            pivot = idx
    if pivot is None:
        poly = BivariatePolynomial.from_dict({(bridges, loops): 1})
    else:
        e = proper[pivot]
        keep = list(edges)
        keep.remove(e)
        del_edges = tuple(keep)
        u, v = e
        con_edges = tuple(
            tuple(sorted((u if a == v else a, u if b == v else b))) for a, b in keep
        )
        poly = _tutte_edges(n, del_edges, memo) + _tutte_edges(n, con_edges, memo)
    memo[key] = poly
    return poly


def tutte_polynomial(g: DirectedGraph) -> BivariatePolynomial:
    """Tutte polynomial via deletion-contraction, memoized within this call."""
    vindex = {v: i for i, v in enumerate(g.vertices)}
    edges = tuple(tuple(sorted((vindex[a.tail], vindex[a.head]))) for a in g.arrows)
    return _tutte_edges(len(g.vertices), edges, {})


def su2_poincare_polynomial(g: DirectedGraph, tutte=None) -> tuple:
    """Coefficients of t^rank * T(1/t, 0), the Poincare polynomial of the
    SU(2) graphical configuration space; empty tuple for the zero polynomial.

    Pass the graph's Tutte polynomial when it is already known.
    """
    t = tutte_polynomial(g) if tutte is None else tutte
    rk = graph_rank(g)
    xs = t.x_slice(0)  # {i: coeff of x^i y^0}
    coeffs = [xs.get(rk - m, 0) for m in range(rk + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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
    mod 2: every subset has the same rank over GF(2) as over Q.  One
    depth-first walk over the subsets keeps an xor basis of the columns'
    parity bitmasks and counts the subsets of each (rank, size), all
    supersets of a spanning subset at once, and (x-1)^(r-rank)
    (y-1)^(size-rank) is expanded once per pair.
    """
    check_tutte_size(va)
    if cocircuits is None:
        enumerate_cocircuits(va)
    n, r = va.size, va.lattice_rank
    parity = [sum((x & 1) << i for i, x in enumerate(c)) for c in va.columns.col_list()]
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
    return BivariatePolynomial.from_dict(acc)
