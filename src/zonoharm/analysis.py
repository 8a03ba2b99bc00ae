"""One analysis context per arrangement, and the table of named checks.

``Analysis`` computes each quantity that the checks read lazily and at most
once: loops and coloops, cocircuits, interior points, the filtration, the
Tutte polynomial with its series, whether the shifted binomials vanish, the
certified power-ideal quotient dimensions and, for a graph input, its
oriented cycles, its Tutte polynomial and the duality verdict.  Coloops are
read off the cocircuits.  A graph's Tutte polynomial is the arrangement's
with x and y swapped, so one walk serves both, and its SU(2) series is the
iz series; ``tutte_duality`` certifies the coordinatisation that makes both
theorems, and a graph's ``tutteIdentity`` gates on it.  ``CHECKS`` defines
every identity once, as a function of a context.  The CLI report evaluates
the checks that carry a report key; the random suite evaluates all of them.
The deletion/contraction check builds one context per minor and reuses the
parent's points and filtration.  Only a parent context enumerates its
cocircuits; each minor's are derived from the parent's and handed to the
minor's context, while its points come from its own facet description.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

from .arrangement import (
    VectorArrangement,
    contraction_cocircuits,
    contraction_data,
    deletion,
    deletion_cocircuits,
    enumerate_cocircuits,
    interior_lattice_points,
    loops_and_coloops,
)
from .errors import LoopOrColoopError, NotIntegralError
from .graphs import (
    DirectedGraph,
    enumerate_oriented_cycles,
    graph_rank,
    signed_incidence,
    tutte_of_arrangement,
)
from .harmonics import (
    Harmonics,
    divided_power,
    divided_power_generation_check,
    iz_hilbert_series,
    verify_saturation,
)
from .ideals import k_minus_generators, quotient_dims, verify_vanishing
from .linalg import IntRowLattice, in_row_lattice


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
    exactness_ok: bool | None  # None when the rank checks were not requested

    @property
    def dims_ok(self) -> bool:
        return all(c.ok for c in self.degree_checks)

    @property
    def ok(self) -> bool:
        return self.verdict(self.bijection_ok, self.dims_ok, self.exactness_ok)

    @staticmethod
    def verdict(bijection_ok: bool, dims_ok: bool, exactness_ok: bool | None) -> bool:
        """Pass unless a part failed; unchecked exactness (None) does not fail."""
        return bijection_ok and dims_ok and exactness_ok is not False


class Analysis:
    """The quantities of one arrangement (and its graph, if any), each computed once.

    ``max_degree`` caps the filtration in ``harmonics``.  ``exact_elements``
    is how many usable elements, in ground-set order, get the exactness rank
    checks in the deletion/contraction check; None means all of them.
    ``cocircuits``, when given, are the arrangement's cocircuits, already
    derived; otherwise they are enumerated.
    """

    def __init__(
        self,
        va: VectorArrangement,
        graph: DirectedGraph | None = None,
        max_degree: int | None = None,
        exact_elements: int | None = None,
        cocircuits: tuple | None = None,
    ):
        self.va = va
        self.graph = graph
        self.max_degree = max_degree
        self.exact_elements = exact_elements
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
    def points(self):
        return interior_lattice_points(self.va, self.cocircuits)

    @cached_property
    def harmonics(self) -> Harmonics:
        return Harmonics(self.va, self.max_degree, self.points)

    @cached_property
    def full_harmonics(self) -> Harmonics:
        """The untruncated filtration; ``harmonics`` itself unless that one is truncated."""
        h = self.harmonics
        return Harmonics(self.va, points=self.points) if h.truncated else h

    @cached_property
    def tutte(self):
        return tutte_of_arrangement(self.va, self.cocircuits)

    @cached_property
    def iz(self) -> tuple:
        return iz_hilbert_series(self.va, self.tutte)

    @cached_property
    def generators_vanish(self) -> bool:
        return verify_vanishing(k_minus_generators(self.va, self.cocircuits), self.points)

    @cached_property
    def power_dims(self) -> tuple:
        h = self.full_harmonics
        return quotient_dims(self.va, self.cocircuits, len(self.iz), h, self.generators_vanish)

    @cached_property
    def cycles(self) -> tuple:
        return enumerate_oriented_cycles(self.graph)

    @cached_property
    def graph_tutte(self):
        """T_G(x, y) = T_A(y, x): ``tutte_duality`` certifies that the
        arrangement's matroid is the dual of the graph's."""
        return self.tutte.swap()

    @cached_property
    def tutte_duality(self) -> bool:
        """The columns A coordinatise the dual of the graph's cycle matroid.

        D A^T = 0 for the signed incidence matrix D puts the row space of A
        in the cycle space, and r + rank(G) = |E| makes it all of it, the
        orthogonal complement of the row space of D.  Then M[A] = M[D]*
        (Oxley, *Matroid Theory*, 2.2.8), so T_G = T_A with x and y swapped,
        and the graph's SU(2) series t^rank(G) T_G(1/t, 0) is the iz series
        t^(|A|-r) T_A(0, 1/t).
        """
        va, d = self.va, signed_incidence(self.graph)
        if any(any(d.matvec(va.columns.row(i))) for i in range(va.lattice_rank)):
            return False
        return va.lattice_rank + graph_rank(self.graph) == va.size

    def minors(self, element) -> tuple:
        """Contexts of the deletion and the contraction of a non-loop,
        non-coloop element, with ``bars``: the image in the contraction's
        lattice of each of this context's points, in order.
        """
        loops, coloops = self.loops_and_coloops
        if element in loops or element in coloops:
            raise LoopOrColoopError(f"{element!r} is a loop or coloop")
        va, cocs = self.va, self.cocircuits
        ctx_del = Analysis(deletion(va, element), cocircuits=deletion_cocircuits(va, element, cocs))
        va_con, transform, inverse = contraction_data(va, element)
        ctx_con = Analysis(
            va_con, cocircuits=contraction_cocircuits(va, element, cocs, va_con, inverse)
        )
        bars = [tuple(transform.matvec(z)[1:]) for z in self.points.points]
        return ctx_del, ctx_con, bars

    def deletion_contraction(self, element, check_exactness: bool = True) -> DeletionContractionReport:
        """Point-set bijection, dimension additivity, and exactness ranks.

        For a non-loop, non-coloop element: the interior points of the deletion
        sit inside those of the arrangement and the complement maps bijectively
        onto the contraction's points; per degree, dimensions satisfy
        dim_i = dim_i(contraction) + dim_{i-1}(deletion); and the pullback and
        difference maps form a short exact sequence on the filtered pieces.
        The minors' cocircuits are derived from this context's; their points
        are computed from them, never mapped, so the bijection test is not
        vacuous.  The two minor contexts are dropped when the element is done.
        """
        ctx_del, ctx_con, bars = self.minors(element)
        pts = self.points.points
        del_pts = set(ctx_del.points.points)
        images = [zbar for z, zbar in zip(pts, bars) if z not in del_pts]
        bijection_ok = (
            del_pts <= set(pts)
            and len(images) == len(set(images))
            and set(images) == set(ctx_con.points.points)
        )

        h, h_del, h_con = self.full_harmonics, ctx_del.harmonics, ctx_con.harmonics
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

        exactness: bool | None = None
        if check_exactness:
            # empty point sets make every space zero: vacuously exact
            exactness = h.point_count == 0 or _exactness_ranks(self, ctx_del, ctx_con, element, bars)
        return DeletionContractionReport(
            element=element,
            bijection_ok=bijection_ok,
            degree_checks=checks,
            exactness_ok=exactness,
        )


def deletion_contraction_check(
    va: VectorArrangement, element, check_exactness: bool = True
) -> DeletionContractionReport:
    """Deletion/contraction check of one element; see ``Analysis.deletion_contraction``."""
    return Analysis(va).deletion_contraction(element, check_exactness)


def _exactness_ranks(ctx: Analysis, ctx_del: Analysis, ctx_con: Analysis, element, bars) -> bool:
    """im(pullback) = ker(difference) and surjectivity, via evaluation vectors.

    Each filtered piece is represented by the q_dim echelon rows of its
    integral lattice, which span the same rational space as all of its
    binomial-product evaluation rows, so every test below decides the same
    statement over Q on fewer rows.  An integer row lies in a piece's Q-span
    iff it lies in the piece's saturated lattice, tested against that
    lattice's echelon.  No canonical rows are read.  ``bars[k]`` is the image
    in the contraction's lattice of the k-th point.
    """
    h, h_del, h_con = ctx.full_harmonics, ctx_del.harmonics, ctx_con.harmonics
    col = ctx.va.column(element)
    index = ctx.points.index_map()
    shift_idx = []
    for z in ctx_del.points.points:
        if z not in index:
            return False
        zs = tuple(a + b for a, b in zip(z, col))
        if zs not in index:
            return False
        shift_idx.append((index[z], index[zs]))
    con_index = ctx_con.points.index_map()
    bar_idx = []
    for zbar in bars:
        pos = con_index.get(zbar)
        if pos is None:
            return False
        bar_idx.append(pos)

    n = h.point_count
    m = len(ctx_del.points)
    for i in range(max(h.top_degree, h_con.top_degree, h_del.top_degree + 1) + 1):
        rows, _ = h.echelon(i)
        rows_con, _ = h_con.echelon(i)
        # pullback of contraction functions along the bar map
        xi_rows = [tuple(f[bar_idx[k]] for k in range(n)) for f in rows_con]
        if IntRowLattice(n, xi_rows).rank != h_con.q_dim(i):
            return False  # pullback not injective
        if not in_row_lattice(*h.saturated_echelon(i), xi_rows):
            return False  # pullback image escapes the filtered piece
        # difference operator into functions on the deletion's points
        d_rows = [tuple(f[b] - f[a] for a, b in shift_idx) for f in rows]
        if m:
            if IntRowLattice(m, d_rows).rank != h_del.q_dim(i - 1):
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


def _divided_power_generation(ctx: Analysis) -> bool:
    return divided_power_generation_check(ctx.harmonics)


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
    n = ctx.exact_elements
    return tuple(
        ctx.deletion_contraction(a, check_exactness=n is None or pos < n)
        for pos, a in enumerate(ctx.usable)
    )


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
    Check("divided_power_generation", "dividedPowerGeneration", _divided_power_generation),
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
