"""Write ``reference.json``: the oracle verdict and behaviour digest of every
benchmark instance (the full workloads and the smoke set).

    python3 bench/make_reference.py [--reuse]

CNF verdicts come from the exhaustive oracle ``brute_force_sat`` (every
instance has n <= 30; an unsatisfiable n = 28 instance takes about two
minutes). Table rows take their expected characteristic value and f-value
prefix from the published table. The digest records what the solver at hand
does (verdict, assignment, path, work counters, code sizes), so that a later
refactor can show it changed no behaviour. ``--reuse`` keeps the stored
oracle verdict of every instance whose generated DIMACS text is unchanged.
The solver must agree with the oracle on every instance, or nothing is
written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from detksat.table_data import REFERENCE_CHAIN_TYPES  # noqa: E402
from workloads import (  # noqa: E402
    SMOKE,
    WORKLOADS,
    CnfInstance,
    assignment_problem,
    digest,
    dimacs_sha,
    formula,
    instances,
)

OUT = HERE / "reference.json"


def oracle_verdict(inst: CnfInstance) -> str:
    m = formula.brute_force_sat(formula.parse_dimacs(inst.dimacs))
    if m is None:
        return "UNSAT"
    problem = assignment_problem(inst.clauses, inst.n, m)
    if problem is not None:
        raise SystemExit("oracle assignment for %s fails: %s" % (inst.id, problem))
    return "SAT"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reuse", action="store_true")
    args = ap.parse_args()
    old = json.loads(OUT.read_text())["instances"] if args.reuse and OUT.exists() else {}
    rows = {r[0]: r for r in REFERENCE_CHAIN_TYPES}
    entries: dict[str, dict] = {}
    for smoke in (False, True):
        for name in (SMOKE if smoke else WORKLOADS):
            for inst in instances(name, smoke):
                if inst.id in entries:
                    continue
                solved = inst.solve()
                if isinstance(inst, CnfInstance):
                    sha = dimacs_sha(inst.dimacs)
                    prev = old.get(inst.id)
                    if prev and prev["dimacs_sha256"] == sha:
                        verdict = prev["verdict"]
                    else:
                        verdict = oracle_verdict(inst)
                    entry = {"dimacs_sha256": sha, "verdict": verdict}
                else:
                    row = rows[inst.type_id]
                    entry = {"verdict": row[3], "f_prefix": row[4]}
                if solved.problem or solved.verdict != entry["verdict"]:
                    raise SystemExit("solver disagrees on %s: %s / %s vs %s" % (
                        inst.id, solved.problem, solved.verdict, entry["verdict"]))
                entry["digest"] = digest(solved.behaviour)
                entry["behaviour"] = solved.behaviour
                entries[inst.id] = entry
                print("%s %s %s" % (inst.id, entry["verdict"], entry["digest"]), flush=True)
    OUT.write_text(json.dumps({"instances": entries}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
