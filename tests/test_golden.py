"""Byte-for-byte regression of the CLI's stdout against stored golden files.

Each file under ``tests/golden/`` holds the exact stdout of one CLI run
listed below; reports and the suite summary must not change by a single byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = [
    (f"graph_{name}.json", 0, ["analyze-graph", f"{name}.graph", "--json"])
    for name in ("cycle4", "house", "house_selfloop", "selfloop", "theta", "two_parts")
] + [
    (f"graph_{name}.txt", 0, ["analyze-graph", f"{name}.graph"])
    for name in ("cycle4", "house", "house_selfloop", "selfloop", "theta", "two_parts")
] + [
    # text only for W7: its JSON report is 167 KB, mostly theta triples
    ("graph_wheel7.txt", 0, ["analyze-graph", "wheel7.graph"]),
    ("arr_house.json", 0, ["analyze-arrangement", "house.arr", "--json"]),
    # house.arr in a sheared lattice basis: its columns are not a network matrix
    ("arr_house_sheared.json", 0, ["analyze-arrangement", "house_sheared.arr", "--json"]),
] + [
    # regular matroids outside the graph files: R10 is neither graphic nor
    # cographic, and K5 and K3,3 are given by their graphic arrangements
    (f"arr_{name}.json", 0, ["analyze-arrangement", f"{name}.arr", "--json"])
    for name in ("r10", "k5_graphic", "k33_graphic")
] + [
    ("suite_seed7_count5.json", 0, ["random-suite", "--seed", "7", "--count", "5", "--json"]),
]


def test_every_data_graph_is_covered():
    for command, pattern in (("analyze-graph", "*.graph"), ("analyze-arrangement", "*.arr")):
        covered = {args[1] for _, _, args in CASES if args[0] == command}
        assert covered == {p.name for p in DATA.glob(pattern)}


@pytest.mark.parametrize("golden,code,args", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(golden, code, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zonoharm", *args],
        cwd=DATA,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()
