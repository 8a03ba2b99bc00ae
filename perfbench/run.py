"""zonoharm benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is driven from
``src/`` through its stable public interfaces only: the ``zonoharm`` CLI
(``analyze-graph --json``, ``random-suite --json``) and the exported
``zonoharm.redundant_generators``.  Every operation runs in a fresh
interpreter, as a CLI user runs it, so no process-global memo carries over
from one operation to the next.

``--trace 0`` repeats passes over the workload's operations for about
``--seconds`` seconds (at least MIN_PASSES passes, so that every input is
analysed more than once and the outputs can be compared byte for byte, and
each operation's median rejects one outlier) and reports the end-to-end
metrics.  Every time is scaled by a host-speed reference measured around it,
which cancels the drift of a shared host's speed (see ``hostspeed.py``); the
measured times are printed beside the scaled ones.  ``--trace 1`` makes one
untraced pass and one traced pass and reports the per-layer metrics from the
traced pass.  Every output is
checked against the corpus manifest.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the same
record, with the Python version, CPU count, platform and seed, is written to
``perfbench/.work/``, next to the traces of a traced run.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
from hostspeed import REFERENCE_S, reference, scale
from tracer import summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
DEADLINE_S = 170.0  # every run must exit within 180 s
SETUP_SAMPLES = 11
MIN_PASSES = 3

# Inputs left out of every workload, so that no timed operation fails at the
# seed commit and none takes too long for the number of runs made:
#   W7: exits 3 (Smith-form size cap).  A later change that makes it pass
#       would add its whole running time and read as a regression.
#   GL(Z)-skewed arrangements (e.g. rank 2 with columns (1,0), (2,1), (1,1),
#       a GL_2(Z) image of a unimodular one): exit 5 (rejected as not totally
#       unimodular), same reason.
#   W6: passes, but one report takes about 29 s (Python 3.11, 2-vCPU
#       x86-64 VM, as for the figures below).
#   B11: passes, but one report takes 6 to 8 s, so MIN_PASSES passes over
#       B9-B11 took 40-53 s a run, too long for the number of runs made;
#       B8-B10 still scan boxes of up to 3^9 candidates for one point.
# random-suite instances are drawn by the program from its own seed.  Their
# cost is heavy-tailed (over 1000 instances with --max-edges 9 the standard
# deviation was three times the mean; 100-instance invocations took 3.2 to
# 7.6 s depending on the suite seed), so suite seeds drawn from the bench
# seed would make runs with different bench seeds do different amounts of
# work.  The suite seeds are therefore fixed, and the bench seed only orders
# the invocations.
SUITE_SEEDS = (1, 2)
SUITE_COUNT = 100
SUITE_MAX_EDGES = 9


@dataclass(frozen=True)
class Workload:
    kind: str  # "graph" (analyze-graph), "ideal" (redundant_generators) or "suite"
    members: tuple  # corpus names, or random-suite seeds


WORKLOADS = {
    # Mid-size graphs of the SU(2) setting.  Deletion/contraction re-derives
    # points, cocircuits and Harmonics for every minor, about 80% of the work,
    # so a shared per-arrangement analysis context shows here.
    "graph-corpus": Workload("graph", ("W4", "K33", "prism", "W5", "K5")),
    # One interior point in a box of 3^r candidates: the box scan, cocircuit
    # enumeration and Tutte dominate, the filtration and ideal layers idle.
    # A pruned point scan shows here; a filtration or ideal change must not.
    "sparse-box": Workload("graph", ("B8", "B9", "B10")),
    # Hundreds of tiny verification-only instances share one process and
    # one Tutte memo, so added per-arrangement set-up shows here.
    "random-suite": Workload("suite", SUITE_SEEDS),
    # Tall Bareiss ranks in the ideal layer and nothing else; in graph-corpus
    # the ideal layer is about 10% of the time, inside the noise.
    "ideal-quotients": Workload("ideal", ("W4", "K33", "prism", "W5")),
}

LAYERS = (
    "cli",
    "report",
    "verification",
    "harmonics",
    "ideals",
    "arrangement",
    "graphs",
    "funcspace",
    "linalg",
    "formats",
)
# functions whose call counts and inclusive times the traced pass reports
FUNCTION_CALLS = (
    "arrangement.interior_lattice_points",
    "harmonics.Harmonics",
    "arrangement.enumerate_cocircuits",
    "linalg.kernel_basis",
    "linalg.smith_divisors",
    "linalg.rank",
    "graphs.tutte_of_arrangement",
)
FUNCTION_CUM = (
    "arrangement.enumerate_cocircuits",
    "linalg.kernel_basis",
    "ideals.power_ideal_quotient_dims",
    "ideals.redundant_generators",
    "graphs.tutte_of_arrangement",
    "harmonics.deletion_contraction_check",
    "verification.run_instance_checks",
)


@dataclass(frozen=True)
class Op:
    key: str  # identical keys must produce identical bytes within a run
    kind: str
    argv: tuple  # arguments after the entry point
    expected: object


@dataclass
class Result:
    op: Op
    wall_s: float  # as measured; Runner.scaled gives the reported figure
    cpu_s: float
    ref: int  # index of the host-speed reference taken just before
    error: str | None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_ops(workload: Workload, seed: int) -> list:
    """The operations of one pass, with their inputs written under WORK."""
    if workload.kind == "suite":
        order = random.Random(seed).sample(workload.members, len(workload.members))
        return [
            Op(
                f"suite-{s}",
                "cli",
                ("random-suite", "--json", "--seed", str(s), "--count", str(SUITE_COUNT),
                 "--max-edges", str(SUITE_MAX_EDGES)),
                s,
            )
            for s in order
        ]
    ops = []
    for name in workload.members:
        path = WORK / f"{name}.graph"
        path.write_text(corpus.graph_text(name, seed), encoding="utf-8")
        if workload.kind == "graph":
            ops.append(Op(name, "cli", ("analyze-graph", str(path), "--json"), corpus.MANIFEST[name]))
        else:
            ops.append(Op(name, "ideal", (str(path),), corpus.MANIFEST[name]))
    return ops


def command(op: Op, trace_file: Path | None, op_id: int) -> list:
    if trace_file is None and op.kind == "cli":
        return [sys.executable, "-m", "zonoharm", *op.argv]
    traced = ["--trace", str(trace_file), "--op-id", str(op_id)] if trace_file else []
    return [sys.executable, str(BENCH_DIR / "op.py"), *traced, op.kind, *op.argv]


def check_output(op: Op, code: int, out: bytes) -> str | None:
    """None when the output matches the manifest, else what differs."""
    if code != 0:
        return f"exit code {code}"
    exp = op.expected
    try:
        doc = json.loads(out)
        if op.kind == "ideal":
            got, want = len(doc["redundant"]), exp.redundant
        elif op.argv[0] == "random-suite":
            want = {"seed": exp, "count": SUITE_COUNT, "maxEdges": SUITE_MAX_EDGES,
                    "passes": SUITE_COUNT, "failures": 0}
            got = {k: doc[k] for k in want}
        else:
            got = (doc["pass"], doc["arrangement"]["latticeRank"],
                   doc["arrangement"]["groundSize"], doc["pointCount"], tuple(doc["grDims"]))
            want = (True, exp.rank, exp.arrows, exp.point_count, exp.gr_dims)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    return None if got == want else f"got {got}, expected {want}"


class Runner:
    """Runs operations one at a time, each after a host-speed reference, and
    checks every output."""

    def __init__(self, started: float):
        self.started = started
        self.env = child_env()
        self.first_output: dict = {}
        self.results: list = []
        self.refs: list = []  # (wall, CPU) of each host-speed reference

    def measure(self, argv: list) -> tuple:
        """(completed process, or None on timeout; wall s; CPU s; reference
        index) of ``argv`` run after a host-speed reference."""
        self.refs.append(reference())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        budget = DEADLINE_S - (t0 - self.started)
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall, cpu, len(self.refs) - 1

    def scaled(self, wall_s: float, cpu_s: float, ref: int) -> tuple:
        """(wall, CPU) of a measurement at the reference host speed.  The
        reference after the last measurement is taken on first use."""
        if ref + 1 == len(self.refs):
            self.refs.append(reference())
        return scale(wall_s, cpu_s, self.refs[ref], self.refs[ref + 1])

    def run(self, op: Op, trace_file: Path | None = None, op_id: int = 0) -> Result:
        proc, wall, cpu, ref = self.measure(command(op, trace_file, op_id))
        if proc is None:
            error, err = "timed out", b"the run's time budget is spent"
        else:
            error, out, err = check_output(op, proc.returncode, proc.stdout), proc.stdout, proc.stderr
        if error is None:
            first = self.first_output.setdefault(op.key, out)
            if first != out:
                error = "output differs from an earlier run of the same input"
        if error is not None:
            detail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            print(f"FAILED {op.key}: {error} {detail[0]}", file=sys.stderr)
        result = Result(op, wall, cpu, ref, error)
        self.results.append(result)
        return result

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > DEADLINE_S


def measure_setup(runner: Runner) -> float:
    """Median scaled wall time of a fresh interpreter importing zonoharm.cli."""
    argv = [sys.executable, "-c", "import zonoharm.cli"]
    subprocess.run(argv, cwd=ROOT, env=runner.env, check=True)  # compile bytecode once
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, wall, cpu, ref = runner.measure(argv)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("import zonoharm.cli failed")
        samples.append((wall, cpu, ref))
    return statistics.median(runner.scaled(*s)[0] for s in samples)


def run_pass(runner: Runner, ops: list, trace_dir: Path | None = None) -> list:
    """The results of one pass over ``ops``."""
    results = []
    for i, op in enumerate(ops):
        if runner.out_of_time():
            break
        trace_file = trace_dir / f"op{i}.json" if trace_dir else None
        results.append(runner.run(op, trace_file, i))
    return results


def pass_wall(runner: Runner, results: list) -> float:
    return sum(runner.scaled(r.wall_s, r.cpu_s, r.ref)[0] for r in results)


def timed_metrics(runner: Runner, ops: list, seconds: int) -> dict:
    """One pass's time summed from each operation's median, in passes
    repeated for about ``seconds``; every time scaled to the reference speed."""
    t0 = time.perf_counter()
    passes = 0
    while True:
        p0 = time.perf_counter()
        run_pass(runner, ops)
        passes += 1
        now = time.perf_counter()
        if runner.out_of_time() or (passes >= MIN_PASSES and now - t0 + now - p0 > seconds):
            break
    per_op = {op.key: [(r.wall_s, runner.scaled(r.wall_s, r.cpu_s, r.ref))
                       for r in runner.results if r.op is op] for op in ops}
    per_op = {key: samples for key, samples in per_op.items() if samples}  # out of time
    for key, samples in per_op.items():
        print(f"op {key}: median {statistics.median(s[1][0] for s in samples):.3f} s scaled,"
              f" {statistics.median(s[0] for s in samples):.3f} s measured, over {len(samples)}")
    print(f"passes {passes}; host-speed reference median"
          f" {statistics.median(w for w, _ in runner.refs):.4f} s (scaled to {REFERENCE_S} s)")
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (sum(statistics.median(s[1][0] for s in v) for v in per_op.values()), "s"),
        "cpu_s": (sum(statistics.median(s[1][1] for s in v) for v in per_op.values()), "s"),
        "op_s_p50": (statistics.median(s[1][0] for v in per_op.values() for s in v), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def traced_metrics(runner: Runner, ops: list, trace_dir: Path) -> dict:
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("op*.json"):
        stale.unlink()
    plain = run_pass(runner, ops)
    traced = run_pass(runner, ops, trace_dir)
    plain_wall, traced_wall = pass_wall(runner, plain), pass_wall(runner, traced)
    layers = {m: [0, 0.0] for m in LAYERS}
    calls: dict = {}
    cum: dict = {}
    probe_in: dict = {}
    probe_out: dict = {}
    for i, op in enumerate(ops):
        path = trace_dir / f"op{i}.json"
        if not path.exists():
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        for module, (n, own) in summarize(record).items():
            if module in layers:
                layers[module][0] += n
                layers[module][1] += own
        for table, src in ((calls, "calls"), (cum, "cum_s"), (probe_in, "probe_in"), (probe_out, "probe_out")):
            for k, v in record[src].items():
                table[k] = table.get(k, 0) + v
        c = record["calls"]
        print(f"op {i} {op.key}: interior_lattice_points {c.get('arrangement.interior_lattice_points', 0)}"
              f" calls, Harmonics {c.get('harmonics.Harmonics', 0)} builds,"
              f" {len(record['spans']['start'])} spans")
    metrics = {}
    for m in LAYERS:
        metrics[f"{m}.self_s"] = (layers[m][1], "s")
        metrics[f"{m}.calls"] = (layers[m][0], "count")
    for f in FUNCTION_CALLS:
        metrics[f"{f}.calls"] = (calls.get(f, 0), "count")
    for f in FUNCTION_CUM:
        metrics[f"{f}.cum_s"] = (cum.get(f, 0.0), "s")
    ilp = "arrangement.interior_lattice_points"
    candidates = probe_in.get(ilp, 0)
    metrics["arrangement.points_per_candidate"] = (
        probe_out.get(ilp, 0) / candidates if candidates else 0.0, "ratio")
    metrics["linalg.rank.cells"] = (probe_in.get("linalg.rank", 0), "count")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall if plain_wall else 0.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="zonoharm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "zonoharm" / "cli.py").is_file():
        print(f"error: no zonoharm sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("environment " + json.dumps(env))

    runner = Runner(started)
    workload = WORKLOADS[args.workload]
    ops = build_ops(workload, args.seed)
    if args.trace:
        metrics = traced_metrics(runner, ops, WORK / "trace" / args.workload)
    else:
        setup_s = measure_setup(runner)
        metrics = timed_metrics(runner, ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    failed = sum(r.error is not None for r in runner.results)
    incomplete = runner.out_of_time()
    summary = {
        "correct": failed == 0 and not incomplete,
        "attempted": len(runner.results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(environment=env, workload=args.workload, trace=args.trace, **summary)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
