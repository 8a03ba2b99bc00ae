"""One analysis context per arrangement, and the table of named checks.

``Analysis`` computes each quantity that the checks read lazily and at most
once: loops and coloops, cocircuits, interior points, the filtration, the
Tutte polynomial with its series, whether the shifted binomials vanish, the
exact power-ideal quotient dimensions, which read only the cocircuits and
the Tutte bound, and, for a graph input, its
spanning forest, its oriented cycles, its Tutte polynomial and the duality
verdict.  Coloops are read off the cocircuits.  A graph's Tutte polynomial
is the arrangement's with x and y swapped, so one computation serves both,
and its SU(2) series is the iz series; ``tutte_duality`` certifies the
coordinatisation that makes both theorems, and a graph's ``tutteIdentity``
gates on it.  ``CHECKS`` defines every identity once, as a function of a
context.  The CLI report evaluates the checks that carry a report key; the
random suite evaluates all of them.  Other modules take these quantities as
arguments and compute none that is missing: a context is the only place
that wires them together.
The deletion/contraction check runs in full, exactness ranks included, on
every element that is neither a loop nor a coloop.  It builds one context
per minor and reuses the parent's points and filtration.  A parent with a
coloop builds no minors: the coloop is a one-element cocircuit of both, so
neither has interior points, and its report is read off the empty sets.
Only a parent context enumerates its cocircuits; both minors' are derived
from the parent's in one sweep, the deletion's filtered through one table
per parent, and handed to the minors' contexts, while their points come
from their own facet descriptions.  The parent's cocircuits also certify
each minor's span, so no minor runs a rank: an element that is not a
coloop (no one-element cocircuit) leaves a deletion that spans, and one
that is not a loop (a nonzero, primitive column a) is contracted by Q, a
basis of the integer covectors that vanish on a, which takes the other
columns onto a spanning set of Z^(r-1).  The exactness ranks keep one
running lattice per map across the degrees and insert only the images of
the echelon rows whose pivot column is new at a degree, which span the
piece together with the degree below; a degree whose pivot columns do not
contain those below it is not nested in it, and fails.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Callable, NamedTuple

from .arrangement import (
    VectorArrangement,
    contract_column,
    delete_column,
    deletion_drops,
    enumerate_cocircuits,
    interior_lattice_points,
    loops_and_coloops,
    minor_cocircuits,
)
from .errors import LoopOrColoopError, NotIntegralError
from .graphs import (
    DirectedGraph,
    enumerate_oriented_cycles,
    spanning_forest,
    tutte_of_arrangement,
)
from .harmonics import (
    Harmonics,
    divided_power,
    iz_hilbert_series,
    verify_saturation,
)
from .ideals import k_minus_generators, quotient_dims, verify_vanishing
from .linalg import IntRowLattice, in_row_lattice, integer_kernel


class DegreeCheck(NamedTuple):
    degree: int
    dim_total: int
    dim_contraction: int
    dim_deletion_prev: int

    @property
    def ok(self) -> bool:
        return self.dim_total == self.dim_contraction + self.dim_deletion_prev


class DeletionContractionReport(NamedTuple):
    element: str
    bijection_ok: bool
    degree_checks: tuple
    exactness_ok: bool

    @property
    def dims_ok(self) -> bool:
        return all(c.ok for c in self.degree_checks)

    @property
    def ok(self) -> bool:
        return self.bijection_ok and self.dims_ok and self.exactness_ok


# The degree checks of three empty point sets: every top degree is 0, and the
# checks run through degree max(0, 0, 0 + 1) + 1.
_EMPTY_MINOR_CHECKS = tuple(DegreeCheck(i, 0, 0, 0) for i in range(3))


class Analysis:
    """The quantities of one arrangement (and its graph, if any), each computed once.

    ``harmonics`` is the one filtration of the arrangement, built to its top
    degree and read by every check and the deletion/contraction checks
    alike; the power-ideal dimensions never read it.  ``cocircuits``, when given, are the
    arrangement's cocircuits, already derived; otherwise they are enumerated.
    """

    def __init__(
        self,
        va: VectorArrangement,
        graph: DirectedGraph | None = None,
        cocircuits: tuple | None = None,
    ):
        self.va = va
        self.graph = graph
        self._cocircuits = cocircuits

    @cached_property
    def loops_and_coloops(self) -> tuple:
        return loops_and_coloops(self.va, self.cocircuits)

    @cached_property
    def usable(self) -> tuple:
        """Elements that are neither loops nor coloops, in ground-set order."""
        loops, coloops = self.loops_and_coloops
        return tuple(a for a in self.va.ground if a not in loops and a not in coloops)

    @cached_property
    def cocircuits(self) -> tuple:
        return enumerate_cocircuits(self.va) if self._cocircuits is None else self._cocircuits

    @cached_property
    def drop_table(self) -> tuple:
        """The ``deletion_drops`` table of the cocircuits, built on the first
        call of ``minors`` and read by every later one."""
        return deletion_drops(self.cocircuits)

    @cached_property
    def points(self) -> tuple:
        return interior_lattice_points(self.va, self.cocircuits)

    @cached_property
    def point_index(self) -> dict:
        """``{point: position}`` of ``points``, read by every element's
        deletion/contraction check."""
        return {z: k for k, z in enumerate(self.points)}

    @cached_property
    def harmonics(self) -> Harmonics:
        return Harmonics(self.points)

    @cached_property
    def tutte(self):
        return tutte_of_arrangement(self.va, self.cocircuits)

    @cached_property
    def iz(self) -> tuple:
        return iz_hilbert_series(self.va, self.tutte)

    @cached_property
    def generators_vanish(self) -> bool:
        return verify_vanishing(k_minus_generators(self.cocircuits), self.points)

    @cached_property
    def power_dims(self) -> tuple:
        return quotient_dims(self.va, self.cocircuits, len(self.iz))

    @cached_property
    def forest(self) -> tuple:
        return spanning_forest(self.graph)

    @cached_property
    def cycles(self) -> tuple:
        return enumerate_oriented_cycles(self.graph, self.forest)

    @cached_property
    def graph_tutte(self):
        """T_G(x, y) = T_A(y, x): ``tutte_duality`` certifies that the
        arrangement's matroid is the dual of the graph's."""
        return self.tutte.swap()

    @cached_property
    def tutte_duality(self) -> bool:
        """The columns A coordinatise the dual of the graph's cycle matroid.

        D A^T = 0 for the signed incidence matrix D puts the row space of A
        in the cycle space: read as a flow on the arrows, each coordinate of
        the columns nets to 0 at every vertex, where a self-loop adds and
        takes the same amount.  r + rank(G) = |E|, rank(G) the size of the
        spanning forest, makes it all of the cycle space, the orthogonal
        complement of the row space of D.  Then M[A] = M[D]* (Oxley,
        *Matroid Theory*, 2.2.8), so T_G = T_A with x and y swapped, and the
        graph's SU(2) series t^rank(G) T_G(1/t, 0) is the iz series
        t^(|A|-r) T_A(0, 1/t).
        """
        va, g = self.va, self.graph
        net = {v: [0] * va.lattice_rank for v in g.vertices}
        for a, col in zip(g.arrows, va.columns.data, strict=True):
            net[a.head] = [x + y for x, y in zip(net[a.head], col)]
            net[a.tail] = [x - y for x, y in zip(net[a.tail], col)]
        if any(any(flow) for flow in net.values()):
            return False
        return va.lattice_rank + len(self.forest) == va.size

    def _require_usable(self, element) -> None:
        loops, coloops = self.loops_and_coloops
        if element in loops or element in coloops:
            raise LoopOrColoopError(f"{element!r} is a loop or coloop")

    def minors(self, element) -> tuple:
        """Contexts of the deletion and the contraction of a non-loop,
        non-coloop element, with ``bars``: the image in the contraction's
        lattice of each of this context's points, in order.

        The cocircuits certify the element, so neither minor runs a rank:
        the deletion's columns are sliced from this context's, and the
        contraction's, like the bars, are their images under Q, the echelon
        basis of the integer covectors that vanish on the element's column
        chi(a): Q maps Z^r onto Z^(r-1) with kernel Z chi(a).  Both minors'
        cocircuits come from one sweep over this context's, filtered through
        its ``drop_table``; the contraction's are the parent's that vanish on
        chi(a), in Q's coordinates.
        """
        self._require_usable(element)
        va = self.va
        idx = va.index_of(element)
        quotient = integer_kernel([va.columns.col(idx)], va.lattice_rank)
        va_con = contract_column(va, idx, quotient)
        cocs_del, cocs_con = minor_cocircuits(
            self.cocircuits, self.drop_table, idx, va_con, quotient
        )
        ctx_del = Analysis(delete_column(va, idx), cocircuits=cocs_del)
        ctx_con = Analysis(va_con, cocircuits=cocs_con)
        bars = [tuple(sum(map(mul, u, z)) for u in quotient) for z in self.points]
        return ctx_del, ctx_con, bars

    def deletion_contraction(self, element) -> DeletionContractionReport:
        """Point-set bijection, dimension additivity, and exactness ranks.

        For a non-loop, non-coloop element: the interior points of the deletion
        sit inside those of the arrangement and the complement maps bijectively
        onto the contraction's points; per degree, dimensions satisfy
        dim_i = dim_i(contraction) + dim_{i-1}(deletion); and the pullback and
        difference maps form a short exact sequence on the filtered pieces.
        The minors' cocircuits are derived from this context's; their points
        are computed from them, never mapped, so the bijection test is not
        vacuous.  The two minor contexts are dropped when the element is done.

        A parent with a coloop builds no minors.  The coloop is a
        one-element cocircuit of the parent and still one of both minors, so
        none of the three has interior points: the bijection holds between
        empty sets, every dimension is 0, and every space is zero, so the
        sequence is exact.
        """
        self._require_usable(element)
        if self.loops_and_coloops[1]:
            return DeletionContractionReport(
                element=element,
                bijection_ok=True,
                degree_checks=_EMPTY_MINOR_CHECKS,
                exactness_ok=True,
            )
        ctx_del, ctx_con, bars = self.minors(element)
        del_pts = set(ctx_del.points)
        images = [zbar for z, zbar in zip(self.points, bars) if z not in del_pts]
        bijection_ok = (
            del_pts <= self.point_index.keys()
            and len(images) == len(set(images))
            and set(images) == set(ctx_con.points)
        )

        h, h_del, h_con = self.harmonics, ctx_del.harmonics, ctx_con.harmonics
        top = max(h.top_degree, h_con.top_degree, h_del.top_degree + 1)
        checks = tuple(
            DegreeCheck(
                degree=i,
                dim_total=h.q_dim(i),
                dim_contraction=h_con.q_dim(i),
                dim_deletion_prev=h_del.q_dim(i - 1),
            )
            for i in range(top + 2)
        )
        # empty point sets make every space zero: vacuously exact
        exactness = h.point_count == 0 or _exactness_ranks(self, ctx_del, ctx_con, element, bars)
        return DeletionContractionReport(
            element=element,
            bijection_ok=bijection_ok,
            degree_checks=checks,
            exactness_ok=exactness,
        )


def compute_filtration(va: VectorArrangement) -> Harmonics:
    """The filtration of ``va`` on its own interior points: rational
    dimensions, integral lattices, and saturation indices."""
    return Analysis(va).harmonics


def _exactness_ranks(ctx: Analysis, ctx_del: Analysis, ctx_con: Analysis, element, bars) -> bool:
    """im(pullback) = ker(difference) and surjectivity, via evaluation vectors.

    Each filtered piece V_i is represented by the echelon rows of its
    integral lattice, which span V_i over Q.  The pieces are nested, so V_i
    is V_{i-1} plus the rows whose pivot column is new at degree i: a
    combination of those leads at a column no vector of V_{i-1} leads at.
    One running lattice per map holds the images of the new rows of every
    degree so far, so it spans the image of V_i, and each degree inserts and
    tests only its new rows' images.  Rank and membership in a saturated
    lattice depend only on the Q-span, and an image tested at a lower
    degree stays in the pieces above it, so every verdict is that of all
    rows.  A degree whose pivot columns do not contain those of the degree
    below breaks the nesting, and fails.  ``bars[k]`` is the image in the
    contraction's lattice of the k-th point.
    """
    h, h_del, h_con = ctx.harmonics, ctx_del.harmonics, ctx_con.harmonics
    col = ctx.va.column(element)
    index = ctx.point_index
    shift_idx = []
    for z in ctx_del.points:
        if z not in index:
            return False
        zs = tuple(a + b for a, b in zip(z, col))
        if zs not in index:
            return False
        shift_idx.append((index[z], index[zs]))
    con_index = ctx_con.point_index
    bar_idx = []
    for zbar in bars:
        pos = con_index.get(zbar)
        if pos is None:
            return False
        bar_idx.append(pos)

    n = h.point_count
    m = len(ctx_del.points)
    pullback, difference = IntRowLattice(n), IntRowLattice(m)
    below, below_con = set(), set()  # pivot columns of the degree below
    for i in range(max(h.top_degree, h_con.top_degree, h_del.top_degree + 1) + 1):
        rows, pivots = h.echelon(i)
        rows_con, pivots_con = h_con.echelon(i)
        if not (below.issubset(pivots) and below_con.issubset(pivots_con)):
            return False  # the pieces are not nested
        # pullback of the new contraction functions along the bar map
        new_con = [f for f, c in zip(rows_con, pivots_con) if c not in below_con]
        xi_rows = [tuple(f[k] for k in bar_idx) for f in new_con]
        for f in xi_rows:
            pullback.add(f)
        if pullback.rank != h_con.q_dim(i):
            return False  # pullback not injective
        if not in_row_lattice(*h.saturated_echelon(i), xi_rows):
            return False  # pullback image escapes the filtered piece
        if m:
            # difference operator into functions on the deletion's points
            new = [f for f, c in zip(rows, pivots) if c not in below]
            d_rows = [tuple(f[b] - f[a] for a, b in shift_idx) for f in new]
            for f in d_rows:
                difference.add(f)
            if difference.rank != h_del.q_dim(i - 1):
                return False  # difference map not surjective
            if not in_row_lattice(*h_del.saturated_echelon(i - 1), d_rows):
                return False  # image escapes the lower filtered piece
            # composite must vanish identically
            for f in xi_rows:
                if any(f[b] - f[a] for a, b in shift_idx):
                    return False
        # exactness in the middle now follows from the rank identity
        if h.q_dim(i) != h_con.q_dim(i) + h_del.q_dim(i - 1):
            return False
        below, below_con = set(pivots), set(pivots_con)
    return True


def _trim(seq) -> list:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return out


def _gr(ctx: Analysis) -> list:
    return _trim(ctx.harmonics.gr_dims)


def _tutte_identity(ctx: Analysis) -> bool:
    """grDims equal the iz series, which for a graph is its SU(2) series
    once ``tutte_duality`` holds."""
    return _gr(ctx) == _trim(ctx.iz) and (ctx.graph is None or ctx.tutte_duality)


def _point_count_identity(ctx: Analysis) -> bool:
    h = ctx.harmonics
    return sum(h.gr_dims) == h.point_count == ctx.graph_tutte.eval_at(1, 0)


def _tutte_duality(ctx: Analysis) -> bool:
    return ctx.tutte_duality


def _saturation(ctx: Analysis) -> bool:
    return verify_saturation(ctx.harmonics)


def _cocircuits_match_cycles(ctx: Analysis) -> bool:
    cyc_data = set()
    for c in ctx.cycles:
        vec = c.class_vector
        lead = next((x for x in vec if x), 0)
        canon = vec if lead > 0 else tuple(-x for x in vec)
        dp, dm = len(c.c_plus), len(c.c_minus)
        cyc_data.add((canon, (dp, dm) if lead > 0 else (dm, dp)))
    return cyc_data == {(c.covector, (c.d_plus, c.d_minus)) for c in ctx.cocircuits}


def _generators_vanish(ctx: Analysis) -> bool:
    return ctx.generators_vanish


def _power_ideal_dims(ctx: Analysis) -> bool:
    return _trim(ctx.power_dims) == _gr(ctx)


def _divided_power_law(ctx: Analysis) -> bool:
    """m! * e^[m] = e^m modulo the lower saturated piece, e the first coordinate class.

    ``divided_power`` checks the law (and integrality) for each m.
    """
    h = ctx.harmonics
    if h.top_degree < 1 or not h.point_count:
        return True
    e = h.coordinate_class(0)
    try:
        for m in range(2, h.top_degree + 1):
            divided_power(h, e, m)
    except NotIntegralError:
        return False
    return True


def _deletion_contraction(ctx: Analysis) -> tuple:
    return tuple(ctx.deletion_contraction(a) for a in ctx.usable)


class Check(NamedTuple):
    """A named identity: ``run`` computes its value from a context, ``passed``
    reads the verdict off that value.  ``key`` names it in the CLI report;
    checks without a key are evaluated by the random suite only."""

    name: str
    key: str | None
    run: Callable
    passed: Callable = bool


# Graph-only checks (point counts, duality, cycles) need a context with a graph.
CHECKS = (
    Check("tutte_identity", "tutteIdentity", _tutte_identity),
    Check("point_count_identity", None, _point_count_identity),
    Check("tutte_duality", None, _tutte_duality),
    Check("saturation", "saturation", _saturation),
    Check("cocircuits_match_cycles", None, _cocircuits_match_cycles),
    Check("generators_vanish", "generatorsVanish", _generators_vanish),
    Check("power_ideal_dims", "powerIdealDims", _power_ideal_dims),
    Check("divided_power_law", None, _divided_power_law),
    Check(
        "deletion_contraction",
        "deletionContraction",
        _deletion_contraction,
        passed=lambda reports: all(r.ok for r in reports),
    ),
)
