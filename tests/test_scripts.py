"""The bundled scripts run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=300
    )


@pytest.mark.parametrize(
    "args",
    [
        ["scripts/house_walkthrough.py"],
        ["scripts/random_verification.py", "--seeds", "1", "--count", "20"],
    ],
    ids=["house_walkthrough", "random_verification"],
)
def test_script_exits_zero(args):
    proc = run_script(args)
    assert proc.returncode == 0, proc.stderr.decode()


def test_walkthrough_stdout_matches_golden():
    proc = run_script(["scripts/house_walkthrough.py"])
    assert proc.stdout == (GOLDEN / "house_walkthrough.txt").read_bytes()


@pytest.mark.parametrize(
    "count, max_edges, message",
    [
        ("3", "0", b"at least 1 edge"),
        ("3", "10", b"limited to 9 edges"),
        ("-1", "5", b"non-negative count"),
    ],
    ids=["no-edges", "past-the-cap", "negative-count"],
)
def test_random_verification_rejects_max_edges(count, max_edges, message):
    # the suite raises before it draws an instance, on a bad edge cap or a
    # negative count; the script reports it in one line and prints no table
    proc = run_script(
        ["scripts/random_verification.py", "--seeds", "1", "--count", count, "--max-edges", max_edges]
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.count(b"\n") == 1 and message in proc.stderr
