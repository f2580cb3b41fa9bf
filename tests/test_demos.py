"""Every demo runs to completion against the current API and prints exactly
the output it printed before: each demo is deterministic, so its standard
output is pinned by its SHA-256 digest.

``reproduce_tables.py`` solves the whole chain-type table (about 3 s), so
the paper's two constant tables are checked end to end on every run. A
change that means to alter a demo's output re-pins its digest and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "branching_anatomy.py": "466403b7755274e2b3f6bb70e0b950b6cfd2dac17e2cfeac32a20d5b2dfd88ee",
    "covering_codes.py": "7f73968db49a38f46f69f6f1e3a4f2ce9da48d7972b31223ea8fb4781b6448bb",
    "reproduce_tables.py": "68b2c1f6f5d6023e82428d2f426f4dd7fb31803b0741987854ba2aae318a59b6",
    "solve_walkthrough.py": "492bb34b1ad8b6a6875b40a2f013523fc4458858023ce810742ad214024c0074",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
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
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == STDOUT_SHA256[demo], res.stdout
