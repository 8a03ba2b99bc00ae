#!/usr/bin/env python3
"""Sweep the random verification suite over several seeds and sizes.

Usage: python scripts/random_verification.py [--seeds 1 2 3] [--count 100]
"""

import argparse
import sys
import time

from zonoharm.errors import ArgumentError, SizeExceededError
from zonoharm.verification import run_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--max-edges", type=int, default=7)
    args = parser.parse_args()

    all_ok = True
    for i, seed in enumerate(args.seeds):
        start = time.perf_counter()
        try:
            summary = run_suite(seed, args.count, args.max_edges)
        except (ArgumentError, SizeExceededError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2)
        elapsed = time.perf_counter() - start
        if i == 0:
            # only once the suite has accepted the arguments
            print(f"{'seed':>6} {'count':>6} {'edges':>6} {'passes':>7} {'failures':>9} {'secs':>7}")
        print(
            f"{seed:>6} {args.count:>6} {args.max_edges:>6}"
            f" {summary.passes:>7} {summary.failures:>9} {elapsed:>7.2f}"
        )
        if summary.first_failure is not None:
            all_ok = False
            print("  first failure:", ", ".join(summary.first_failure.failed()))
            print("  replay input:")
            for line in summary.first_failure.graph_text.splitlines():
                print("   ", line)
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
