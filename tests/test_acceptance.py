"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact; the only tolerances are the stated runtime
bounds (1 s for the house pipeline, 60 s for the 100-instance identity suite).
"""

import json
import random
import subprocess
import sys
import time
from functools import lru_cache

import pytest

from conftest import data_path
from oracles import solve_row_lattice, su2_poincare_polynomial, tutte_polynomial
from zonoharm.analysis import Analysis, compute_filtration
from zonoharm.arrangement import VectorArrangement, enumerate_cocircuits
from zonoharm.formats import parse_arrangement, parse_graph
from zonoharm.graphs import cographical_arrangement, enumerate_oriented_cycles, spanning_forest
from zonoharm.harmonics import divided_power, verify_saturation
from zonoharm.ideals import k_minus_generators, verify_vanishing
from zonoharm.linalg import Mat, saturate
from zonoharm.verification import random_connected_multigraph

SUITE_SEED = 1
SUITE_COUNT = 100
SUITE_MAX_EDGES = 7


def _report(number, ok, detail):
    print(f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def trim(seq):
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def cycle_arrangement(k):
    return VectorArrangement(1, tuple(f"a{i}" for i in range(k)), Mat.from_rows([[1] * k]))


@lru_cache(maxsize=1)
def suite_graphs():
    rng = random.Random(SUITE_SEED)
    return tuple(random_connected_multigraph(rng, SUITE_MAX_EDGES) for _ in range(SUITE_COUNT))


@lru_cache(maxsize=1)
def suite_contexts():
    return tuple(compute_filtration(cographical_arrangement(g)) for g in suite_graphs())


class TestCriterion1House:
    def test_house_end_to_end(self, house_graph, house_arrangement):
        start = time.perf_counter()
        failures = []

        rep = compute_filtration(house_arrangement)
        pts = rep.points
        expected_points = tuple(sorted((a, b) for a in (1, 2, 3) for b in (1, 2)))
        if pts != expected_points:
            failures.append(f"interior points {pts}")
        coc = {(c.d_plus, c.d_minus) for c in enumerate_cocircuits(house_arrangement)}
        if coc != {(3, 0), (4, 0), (3, 2)}:
            failures.append(f"cocircuit data {coc}")
        if rep.q_dims != [1, 3, 5, 6]:
            failures.append(f"qDims {rep.q_dims}")
        if rep.gr_dims != (1, 2, 2, 1):
            failures.append(f"grDims {rep.gr_dims}")
        if rep.saturation_indices != [1, 1, 1, 1]:
            failures.append(f"saturation indices {rep.saturation_indices}")

        # graph route: same graded data; cycle table carries the (d+, d-) pairs
        grep = compute_filtration(cographical_arrangement(house_graph))
        if grep.point_count != 6 or grep.q_dims != [1, 3, 5, 6] or grep.gr_dims != (1, 2, 2, 1):
            failures.append("graph route disagrees")
        if not verify_saturation(grep):
            failures.append("graph route saturation")
        cycles = enumerate_oriented_cycles(house_graph, spanning_forest(house_graph))
        cyc = {(len(c.c_plus), len(c.c_minus)) for c in cycles}
        if cyc != {(3, 0), (4, 0), (3, 2)}:
            failures.append(f"cycle sign counts {cyc}")

        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.3f}s")
        _report(1, not failures, f"house pipeline in {elapsed * 1000:.0f} ms")
        assert not failures, failures


class TestCriterion2CycleFamily:
    def test_cycles_two_to_eight(self):
        failures = []
        for k in range(2, 9):
            va = cycle_arrangement(k)
            ctx = compute_filtration(va)
            if ctx.points != tuple((z,) for z in range(1, k)):
                failures.append(f"k={k} points")
            if ctx.gr_dims != (1,) * (k - 1):
                failures.append(f"k={k} grDims {ctx.gr_dims}")
            if ctx.top_degree != k - 2:
                failures.append(f"k={k} top degree {ctx.top_degree}")
            if k == 2:
                continue
            e = ctx.coordinate_class(0)
            eta = e.values
            fact = 1
            for m in range(2, k - 1):
                em = divided_power(ctx, e, m)
                fact = fact * m
                diff = tuple(fact * a - b**m for a, b in zip(em.values, eta))
                if solve_row_lattice(ctx.saturated_echelon(m - 1)[0], diff) is None:
                    failures.append(f"k={k} divided power law m={m}")
            if k >= 4:
                e2 = divided_power(ctx, e, 2)
                ring_gens = list(ctx.saturated_echelon(1)[0]) + [tuple(v * v for v in eta)]
                if solve_row_lattice(ring_gens, e2.values) is not None:
                    failures.append(f"k={k} divided square is in the plain subring")
        _report(2, not failures, "cycle family k=2..8")
        assert not failures, failures


class TestCriterion3TutteIdentity:
    def test_hundred_random_instances(self):
        start = time.perf_counter()
        failures = []
        for i, g in enumerate(suite_graphs()):
            va = cographical_arrangement(g)
            ctx = compute_filtration(va)
            gr = trim(ctx.gr_dims)
            iz = trim(Analysis(va).iz)
            su2 = trim(su2_poincare_polynomial(g))
            if not (gr == iz == su2):
                failures.append(f"instance {i}: {gr} {iz} {su2}")
            total = sum(ctx.gr_dims)
            if not (total == ctx.point_count == tutte_polynomial(g).eval_at(1, 0)):
                failures.append(f"instance {i}: point counts")
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s")
        _report(3, not failures, f"{SUITE_COUNT} instances in {elapsed:.2f} s")
        assert not failures, failures


class TestCriterion4DeletionContraction:
    def test_every_usable_element(self):
        failures = []
        checked = 0
        for i, g in enumerate(suite_graphs()):
            va = cographical_arrangement(g)
            ctx = Analysis(va)
            loops, coloops = ctx.loops_and_coloops
            usable = [a for a in va.ground if a not in loops and a not in coloops]
            for a in usable:
                rep = ctx.deletion_contraction(a)
                checked += 1
                if not rep.bijection_ok:
                    failures.append(f"instance {i} element {a}: bijection")
                if not rep.dims_ok:
                    failures.append(f"instance {i} element {a}: dims")
                if rep.exactness_ok is not True:
                    failures.append(f"instance {i} element {a}: exactness")
        _report(4, not failures, f"bijection, dims and rank exactness on all {checked} "
                f"usable elements of {SUITE_COUNT} instances")
        assert not failures, failures


class TestCriterion5Saturation:
    def test_saturation_everywhere_and_sensitivity(self, house_arrangement):
        failures = []
        for i, ctx in enumerate(suite_contexts()):
            if not all(ix == 1 for ix in ctx.saturation_indices):
                failures.append(f"instance {i}: {ctx.saturation_indices}")
        if not verify_saturation(compute_filtration(house_arrangement)):
            failures.append("house")
        for k in range(2, 9):
            if not verify_saturation(compute_filtration(cycle_arrangement(k))):
                failures.append(f"cycle k={k}")
        # sensitivity: the two-point set {0, 2} in Z has index 2 at degree 1
        rows = [(1, 1), (0, 2)]
        idx = saturate(rows, 2)[1]
        if idx != 2:
            failures.append(f"non-example index {idx}")
        _report(5, not failures, "saturation indices all 1; {0,2} non-example has index 2")
        assert not failures, failures


class TestCriterion6IdealLayer:
    def test_vanishing_and_quotient_dims(self, house_arrangement):
        failures = []
        instances = [(f"suite-{i}", cographical_arrangement(g)) for i, g in enumerate(suite_graphs())]
        instances.append(("house", house_arrangement))
        instances += [(f"cycle-{k}", cycle_arrangement(k)) for k in range(2, 9)]
        for name, va in instances:
            ctx = Analysis(va)
            if not verify_vanishing(k_minus_generators(ctx.cocircuits), ctx.points):
                failures.append(f"{name}: generator fails to vanish")
            gr = trim(compute_filtration(va).gr_dims)
            if trim(ctx.power_dims) != gr:
                failures.append(f"{name}: power ideal dims")
        _report(6, not failures, f"{len(instances)} instances")
        assert not failures, failures


class TestCriterion7Determinism:
    def test_byte_identical_reports(self):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "zonoharm", *args],
                capture_output=True,
                timeout=300,
            )

        failures = []
        graph_path = str(data_path("house.graph"))
        a = run("analyze-graph", graph_path, "--json")
        b = run("analyze-graph", graph_path, "--json")
        if a.returncode != 0 or a.stdout != b.stdout:
            failures.append("analyze-graph bytes differ")
        c = run("random-suite", "--seed", "9", "--count", "8", "--json")
        d = run("random-suite", "--seed", "9", "--count", "8", "--json")
        if c.returncode != 0 or c.stdout != d.stdout:
            failures.append("random-suite bytes differ")
        if not failures:
            payload = json.loads(a.stdout)
            if payload["schemaVersion"] != 2:
                failures.append("schema version")
            if json.loads(c.stdout)["schemaVersion"] != 1:
                failures.append("suite schema version")
        _report(7, not failures, "two runs, byte-identical JSON")
        assert not failures, failures
