"""Run one benchmark operation in this (fresh) interpreter.

    python3 perfbench/op.py [--trace OUT --op-id N] cli <zonoharm CLI arguments>
    python3 perfbench/op.py [--trace OUT --op-id N] ideal <graph file>

``cli`` calls the console entry point ``zonoharm.cli.main``; ``ideal`` prints
the indices of ``zonoharm.redundant_generators`` for the graph's cycle-space
arrangement as JSON.  With ``--trace`` the call runs under the span tracer
and the trace is written to OUT.  zonoharm must be importable (PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ideal(path: str) -> int:
    import zonoharm
    from zonoharm.formats import parse_graph

    with open(path, encoding="utf-8") as fh:
        graph = parse_graph(fh.read())
    redundant = zonoharm.redundant_generators(zonoharm.cographical_arrangement(graph))
    sys.stdout.write(json.dumps({"redundant": list(redundant)}) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="write the span trace of the call to this file")
    parser.add_argument("--op-id", type=int, default=0)
    parser.add_argument("kind", choices=("cli", "ideal"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    import zonoharm.cli

    def call() -> int:
        return zonoharm.cli.main(opts.args) if opts.kind == "cli" else _ideal(opts.args[0])

    if not opts.trace:
        return call()

    from tracer import Tracer

    tracer = Tracer(os.path.dirname(zonoharm.__file__), op_id=opts.op_id)
    tracer.start()
    try:
        code = call()
    finally:
        Tracer.stop()
        with open(opts.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
