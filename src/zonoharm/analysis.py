"""One analysis context per arrangement, and the table of named checks.

``Analysis`` computes each quantity that the checks read lazily and at most
once: loops and coloops, cocircuits, interior points, the filtration, the
Tutte polynomial with its series, the exact power-ideal quotient
dimensions, which read only the cocircuits and the Tutte bound, and, for a
graph input, its spanning forest, its oriented cycles, its Tutte
polynomial and the duality verdict.  Coloops are read off the cocircuits.
A graph's Tutte polynomial is the arrangement's with x and y swapped, so
one computation serves both, and its SU(2) series is the iz series;
``tutte_duality`` certifies the coordinatisation that makes both theorems,
and a graph's ``tutteIdentity`` gates on it.  ``CHECKS`` defines every
identity once, as a function of a context that compares two sides computed
independently.  The CLI report evaluates the checks that carry a report
key; the random suite evaluates all of them.  Other modules take these
quantities as arguments and compute none that is missing: a context is the
only place that wires them together.
The deletion/contraction check runs in full, exactness ranks included, on
every element that is neither a loop nor a coloop.  The dimension identity
is the middle of its exact sequence, so ``exactness`` reads ``dims`` and
the ranks test only the two ends and the composite.  It builds one context
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
columns onto a spanning set of Z^(r-1).  The bijection test and the
exactness ranks read one list of point positions per element.  The ranks
keep one running lattice per map across the degrees and insert only the
images of the echelon rows whose pivot column is new at a degree, which
span the piece together with the degree below; a degree whose pivot
columns do not contain those below it is not nested in it, and fails.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul
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
from .errors import LoopOrColoopError
from .graphs import (
    DirectedGraph,
    enumerate_oriented_cycles,
    iz_hilbert_series,
    spanning_forest,
    tutte_of_arrangement,
)
from .harmonics import Harmonics, verify_saturation
from .ideals import k_minus_generators, quotient_dims, verify_vanishing
from .linalg import IntRowLattice, in_row_lattice, integer_kernel


class DeletionContractionReport(NamedTuple):
    element: str
    bijection_ok: bool
    dims_ok: bool
    exactness_ok: bool

    @property
    def ok(self) -> bool:
        return self.bijection_ok and self.dims_ok and self.exactness_ok


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
        ``_exactness_ranks`` shows the pullback injective, the difference
        onto and their composite zero; the middle then follows from the
        dimension identity, so exactness includes ``dims`` and runs only
        where it holds.  ``top`` is at least every top degree and ``top - 1``
        at least the deletion's, so at ``top + 1`` each piece equals its
        piece at ``top``, and the degrees up to ``top`` decide both.
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
            return DeletionContractionReport(element, True, True, True)
        ctx_del, ctx_con, bars = self.minors(element)
        del_idx, shifted_idx, bar_idx = _positions(self, ctx_del, ctx_con, element, bars)
        # the bars of the points outside the deletion hit each of the
        # contraction's points once
        images = [bar_idx[k] for k in set(range(len(bars))).difference(del_idx)]
        bijection_ok = (
            None not in del_idx
            and None not in images
            and len(set(images)) == len(images) == len(ctx_con.points)
        )

        h, h_del, h_con = self.harmonics, ctx_del.harmonics, ctx_con.harmonics
        top = max(h.top_degree, h_con.top_degree, h_del.top_degree + 1)
        dims_ok = all(h.q_dim(i) == h_con.q_dim(i) + h_del.q_dim(i - 1) for i in range(top + 1))
        # empty point sets make every space zero: vacuously exact; a point
        # with no position leaves a map undefined
        exactness = dims_ok and (
            h.point_count == 0
            or (
                None not in del_idx + shifted_idx + bar_idx
                and _exactness_ranks(h, h_del, h_con, top, list(zip(del_idx, shifted_idx)), bar_idx)
            )
        )
        return DeletionContractionReport(element, bijection_ok, dims_ok, exactness)


def compute_filtration(va: VectorArrangement) -> Harmonics:
    """The filtration of ``va`` on its own interior points: rational
    dimensions, integral lattices, and saturation indices."""
    return Analysis(va).harmonics


def _positions(ctx: Analysis, ctx_del: Analysis, ctx_con: Analysis, element, bars) -> tuple:
    """The positions among ``ctx``'s points of each deletion point z and of
    z + chi(a), and among the contraction's of each bar; None for none."""
    index, col = ctx.point_index, ctx.va.column(element)
    del_idx = [index.get(z) for z in ctx_del.points]
    shifted_idx = [index.get(tuple(map(add, z, col))) for z in ctx_del.points]
    return del_idx, shifted_idx, [ctx_con.point_index.get(zbar) for zbar in bars]


def _exactness_ranks(
    h: Harmonics, h_del: Harmonics, h_con: Harmonics, top: int, shift_idx, bar_idx
) -> bool:
    """Pullback injective, difference onto, composite zero, via evaluation vectors.

    Through degree ``top``; the middle of the sequence, im(pullback) =
    ker(difference), then follows from the dimension identity, which the
    caller tests.

    ``h``, ``h_del`` and ``h_con`` filter the parent, deletion and contraction;
    the positions come from ``_positions``, the deletion's zipped to pairs
    (z, z + chi(a)).  Each filtered piece V_i is represented by the echelon
    rows of its integral lattice, which span V_i over Q.  The pieces are
    nested, so V_i is V_{i-1} plus the rows whose pivot column is new at
    degree i: a combination of those leads at a column no vector of V_{i-1}
    leads at.  One running lattice per map holds the images of the new rows
    of every degree so far, so it spans the image of V_i, and each degree
    inserts and tests only its new rows' images.  Rank and membership in a
    saturated lattice depend only on the Q-span, and an image tested at a
    lower degree stays in the pieces above it, so every verdict is that of
    all rows.  A degree whose pivot columns do not contain those of the
    degree below breaks the nesting, and fails.
    """
    m = len(shift_idx)
    pullback, difference = IntRowLattice(h.point_count), IntRowLattice(m)
    below, below_con = set(), set()  # pivot columns of the degree below
    for i in range(top + 1):
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
        below, below_con = set(pivots), set(pivots_con)
    return True


def _trim(seq) -> tuple:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _tutte_identity(ctx: Analysis) -> bool:
    """grDims (the points) against the iz series (the Tutte polynomial): the
    orbit-harmonics ring has the internal zonotopal Hilbert series, which for
    a graph is its SU(2) series once ``tutte_duality`` holds."""
    return ctx.harmonics.gr_dims == ctx.iz and (ctx.graph is None or ctx.tutte_duality)


def _point_count_identity(ctx: Analysis) -> bool:
    """The point scan's count against T(0, 1): the interior points number
    the dimension of the internal zonotopal algebra."""
    return len(ctx.points) == ctx.tutte.eval_at(0, 1)


def _tutte_duality(ctx: Analysis) -> bool:
    """The columns against the graph's incidence matrix: the arrangement is
    cographical, coordinatising the dual of the graph's cycle matroid."""
    return ctx.tutte_duality


def _saturation(ctx: Analysis) -> bool:
    """Each degree's lattice against its saturation: the integral form's
    filtered pieces are saturated."""
    return verify_saturation(ctx.harmonics)


def _cocircuits_match_cycles(ctx: Analysis) -> bool:
    """The cocircuits, with d_+ and d_-, against the graph's oriented cycles,
    with their arrow counts: a cographical arrangement's cocircuits are the
    graph's cycles."""
    cyc_data = set()
    for c in ctx.cycles:
        vec = c.class_vector
        lead = next((x for x in vec if x), 0)
        canon = vec if lead > 0 else tuple(-x for x in vec)
        dp, dm = len(c.c_plus), len(c.c_minus)
        cyc_data.add((canon, (dp, dm) if lead > 0 else (dm, dp)))
    return cyc_data == {(c.covector, (c.d_plus, c.d_minus)) for c in ctx.cocircuits}


def _generators_vanish(ctx: Analysis) -> bool:
    """The cocircuits' shifted binomials against the points, on each of which
    all vanish: a postcondition of the point scan, not an identity of the paper."""
    return verify_vanishing(k_minus_generators(ctx.cocircuits), ctx.points)


def _power_ideal_dims(ctx: Analysis) -> bool:
    """The power-ideal quotient's dimensions (the cocircuits) against grDims
    (the points): the internal zonotopal algebra is the orbit-harmonics ring."""
    return _trim(ctx.power_dims) == ctx.harmonics.gr_dims


def _deletion_contraction(ctx: Analysis) -> tuple:
    """Each usable element's parent against its deletion and contraction: the
    point bijection, the dimension identity and the exact sequence of pieces."""
    return tuple(ctx.deletion_contraction(a) for a in ctx.usable)


class Check(NamedTuple):
    """A named identity: ``run`` computes its value from a context, ``passed``
    reads the verdict off that value.  ``key`` names it in the CLI report;
    checks without a key are evaluated by the random suite only."""

    name: str
    key: str | None
    run: Callable
    passed: Callable = bool


# The duality and cycle checks need a graph; they carry no key, so only the
# random suite, whose instances are graphs, runs them.
CHECKS = (
    Check("tutte_identity", "tutteIdentity", _tutte_identity),
    Check("point_count_identity", None, _point_count_identity),
    Check("tutte_duality", None, _tutte_duality),
    Check("saturation", "saturation", _saturation),
    Check("cocircuits_match_cycles", None, _cocircuits_match_cycles),
    Check("generators_vanish", "generatorsVanish", _generators_vanish),
    Check("power_ideal_dims", "powerIdealDims", _power_ideal_dims),
    Check(
        "deletion_contraction",
        "deletionContraction",
        _deletion_contraction,
        passed=lambda reports: all(r.ok for r in reports),
    ),
)
