"""Tests of the benchmark itself, on one tiny instance per workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from detksat import branching_k  # noqa: E402
from detksat.branching_k import SolveResult  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SMOKE, instances  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())["instances"]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke_pass(name: str, reference: dict = REFERENCE, tracer=None) -> dict:
    insts = instances(name, smoke=True)
    return run.run_pass(insts, reference, list(range(len(insts))), tracer)


def fail_ratio(out: dict) -> float:
    return sum(1 for r in out["results"] if r["problem"]) / len(out["results"])


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_pass_matches_reference(name):
    out = smoke_pass(name)
    assert fail_ratio(out) == 0
    assert [r["digest"] for r in out["results"]] == [
        REFERENCE[r["id"]]["digest"] for r in out["results"]
    ]


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_pass_reproduces_untraced_digests(name):
    plain = smoke_pass(name)
    tracer = Tracer()
    tracer.install()
    try:
        traced = smoke_pass(name, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert [r["digest"] for r in traced["results"]] == [r["digest"] for r in plain["results"]]


def test_flipped_assignment_bit_is_a_failure(monkeypatch):
    (inst,) = instances("br3", smoke=True)
    assert REFERENCE[inst.id]["verdict"] == "SAT"
    real = branching_k.solve_ksat

    def corrupted(f, **kwargs):
        res = real(f, **kwargs)
        a = dict(res.assignment)
        # flip a variable that is the only true literal of some clause
        v = next(
            abs(t[0])
            for t in (
                [l for l in lits if (a[abs(l)] == 1) == (l > 0)] for lits in inst.clauses
            )
            if len(t) == 1
        )
        a[v] ^= 1
        return SolveResult("SAT", a)

    monkeypatch.setattr(branching_k, "solve_ksat", corrupted)
    assert fail_ratio(smoke_pass("br3")) > 0


def test_wrong_stored_verdict_is_a_failure():
    (inst,) = instances("dls-threshold", smoke=True)
    reference = copy.deepcopy(REFERENCE)
    entry = reference[inst.id]
    entry["verdict"] = "SAT" if entry["verdict"] == "UNSAT" else "UNSAT"
    assert fail_ratio(smoke_pass("dls-threshold", reference)) > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_command_prints_every_metric(trace):
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    start = time.perf_counter()
    for w in SPEC["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            stdout=subprocess.PIPE, text=True, timeout=120, cwd=HERE.parent,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
        assert {k: m["unit"] for k, m in report["metrics"].items()} == wanted
    assert time.perf_counter() - start < 60 * (1 + trace)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "br3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
