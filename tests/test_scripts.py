"""The bundled scripts run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args",
    [
        ["scripts/house_walkthrough.py"],
        ["scripts/random_verification.py", "--seeds", "1", "--count", "20"],
    ],
    ids=["house_walkthrough", "random_verification"],
)
def test_script_exits_zero(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
