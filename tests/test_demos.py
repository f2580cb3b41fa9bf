"""Smoke test: every demo runs to completion against the current API.

``reproduce_tables.py`` solves the whole chain-type table (about 3 s), so
the paper's two constant tables are checked end to end on every run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["branching_anatomy.py", "covering_codes.py", "reproduce_tables.py", "solve_walkthrough.py"],
)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout
