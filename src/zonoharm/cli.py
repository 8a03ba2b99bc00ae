"""Command-line interface.

Subcommands:
  analyze-graph <file>        full pipeline on a directed-graph file
  analyze-arrangement <file>  full pipeline on an arrangement file
  random-suite                seeded random cross-verification stream

Exit codes: 0 all verdicts pass, 2 unreadable input or invalid argument,
3 size cap exceeded, 4 verification failure, 5 not totally unimodular (some
basis of columns has determinant other than +-1; the message names one).

Output conventions: interior points are listed in lexicographic order;
cocircuit covectors are sign-normalized so their first nonzero entry is
positive; oriented cycles start at their lowest arrow id with sign +1.
Computed counts and series are independent of edge orientations and of the
choice of lattice basis; the literal point coordinates are basis-dependent.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NotTotallyUnimodularError, ParseError, SizeExceededError
from .formats import parse_arrangement, parse_graph
from .report import build_graph_report, build_report, render_text, to_json_bytes

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_VERIFY = 4
EXIT_NOT_TU = 5


def _write(data) -> None:
    if isinstance(data, bytes):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(data)
        sys.stdout.flush()


def _emit(report: dict, as_json: bool) -> int:
    _write(to_json_bytes(report) if as_json else render_text(report))
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE


def _analyze(args, parse, build) -> int:
    """Read ``args.path``, parse it and emit the report that ``build`` assembles."""
    try:
        with open(args.path, encoding="utf-8") as f:
            text = f.read()
        parsed = parse(text)
    except OSError as exc:
        return _input_error(str(exc))
    except UnicodeDecodeError as exc:
        return _input_error(f"{args.path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = build(text, parsed)
    except NotTotallyUnimodularError as exc:
        print(f"not totally unimodular: {exc}", file=sys.stderr)
        return EXIT_NOT_TU
    except SizeExceededError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    return _emit(report, args.json)


def cmd_analyze_graph(args) -> int:
    return _analyze(args, parse_graph, build_graph_report)


def cmd_analyze_arrangement(args) -> int:
    return _analyze(args, parse_arrangement, build_report)


def cmd_random_suite(args) -> int:
    if args.count < 0:
        return _input_error("--count must be non-negative")
    if args.max_edges < 1:
        return _input_error("--max-edges must be at least 1")
    # imported here: no other subcommand needs the suite, and every call pays for an import
    from .verification import run_suite

    try:
        summary = run_suite(args.seed, args.count, args.max_edges)
    except SizeExceededError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    payload = {
        "schemaVersion": 1,
        "seed": args.seed,
        "count": args.count,
        "maxEdges": args.max_edges,
        "passes": summary.passes,
        "failures": summary.failures,
        "firstFailure": (
            None
            if summary.first_failure is None
            else {
                "index": summary.first_failure.index,
                "graph": summary.first_failure.graph_text,
                "failedChecks": list(summary.first_failure.failed()),
            }
        ),
    }
    if args.json:
        _write(to_json_bytes(payload))
    else:
        lines = [
            f"random suite: seed {args.seed}, {args.count} instances,"
            f" max {args.max_edges} edges",
            f"  passes  : {summary.passes}",
            f"  failures: {summary.failures}",
        ]
        if summary.first_failure is not None:
            lines.append(
                f"  first failure at index {summary.first_failure.index}:"
                f" {', '.join(summary.first_failure.failed())}"
            )
            lines.append("  replay input:")
            lines.extend("    " + l for l in summary.first_failure.graph_text.splitlines())
        _write("\n".join(lines) + "\n")
    return EXIT_OK if summary.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonoharm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit the machine-readable report")

    def analyze(p):
        p.add_argument("path")
        common(p)

    pg = sub.add_parser("analyze-graph", help="analyze a directed graph file")
    analyze(pg)
    pg.set_defaults(func=cmd_analyze_graph)

    pa = sub.add_parser("analyze-arrangement", help="analyze a vector arrangement file")
    analyze(pa)
    pa.set_defaults(func=cmd_analyze_arrangement)

    pr = sub.add_parser("random-suite", help="run the seeded random verification suite")
    common(pr)
    pr.add_argument("--seed", type=int, default=1, help="seed of the instance stream")
    pr.add_argument("--count", type=int, default=50, help="number of instances")
    pr.add_argument("--max-edges", type=int, default=7, help="edge cap per instance (<= 9)")
    pr.set_defaults(func=cmd_random_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
