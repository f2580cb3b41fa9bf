"""The benchmark's workloads: which instances each one solves, how one
instance is solved and checked, and the behaviour digest of a solve.

Every library call goes through a module attribute (``formula.parse_dimacs``,
``branching_k.solve_ksat``, ...) looked up at call time, so that the tracer
can wrap it from outside the library.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Optional

from detksat import branching_k, chains, characteristic, generator
from detksat.branching3 import PhiConfig
from detksat.branching_k import SolveStats
from detksat.table_data import REFERENCE_CHAIN_TYPES

# the package attribute ``detksat.formula`` is the function of that name
formula = importlib.import_module("detksat.formula")


@dataclass(frozen=True)
class Family:
    """Random k-CNF over n variables with round(density * n) clauses, one
    instance per generator seed. ``c`` is the branching base of
    ``detksat solve --c``; None keeps the default."""

    k: int
    density: float
    n: int
    seeds: tuple[int, ...]
    c: Optional[float] = None


# Why each workload exists, and its measured layer shares, is in NOTES.md.
# The instance sets are fixed: the stored oracle verdicts cover exactly
# these instances, and per-instance work varies 10-100x between generator
# seeds, so a set drawn from the run's --seed would spread batch_s far
# beyond any bound. The run's --seed orders the solves instead.
WORKLOADS: dict[str, tuple] = {
    # random 3-CNF at the threshold, decided by the 3-SAT branching
    "br3": (Family(3, 4.26, 28, tuple(range(10))),),
    # random 4- and 5-CNF at the threshold, all handed to the local search
    "dls-threshold": (
        Family(4, 9.9, 16, (0, 1, 2, 3)),
        Family(5, 21.0, 14, (0, 1)),
    ),
    # under-constrained, all SAT: covering-code construction dominates, and
    # instances with the same chain structure rebuild the same code. The
    # 4- and 5-CNF seeds are those whose chain collection leaves a small
    # ell-family; seeds 0 and 2 of both build one for 4-6 s, which would
    # make a single solve most of the pass.
    "dls-sat": (
        Family(3, 3.5, 21, (0, 1, 2), c=1.05),
        Family(4, 7.0, 18, (1, 3)),
        Family(5, 15.0, 17, (1, 3)),
    ),
    # rows of the 38-type reference table whose solution space has at most
    # 10 variables (10 dense and 19 modular exact solves); the nine rows of
    # 11 and 12 variables take 16 of the table's 22 s and would leave one
    # pass per run
    "table2": (
        tuple(range(1, 20)) + (22, 25, 27, 28, 29, 30, 32, 33, 34, 35),
    ),
}

# one tiny instance per workload, for the benchmark's own tests
SMOKE: dict[str, tuple] = {
    "br3": (Family(3, 4.26, 12, (1,)),),
    "dls-threshold": (Family(4, 9.9, 10, (2,)),),
    "dls-sat": (Family(3, 3.5, 12, (1,), c=1.05),),
    "table2": ((12,),),
}


@dataclass
class Solved:
    """What one timed solve produced, before it is compared with the
    stored reference."""

    verdict: str
    problem: Optional[str]  # why the output is wrong, None when it checks out
    behaviour: dict
    counters: dict


@dataclass(frozen=True)
class CnfInstance:
    id: str
    dimacs: str
    clauses: tuple[tuple[int, ...], ...]
    n: int
    c: Optional[float]

    def solve(self) -> Solved:
        """The timed operation: what ``detksat solve`` does after reading
        the file, plus the benchmark's own check of a SAT assignment."""
        f = formula.parse_dimacs(self.dimacs)
        stats = SolveStats()
        phi = PhiConfig(c=self.c) if self.c is not None else None
        res = branching_k.solve_ksat(f, phi_cfg=phi, stats=stats)
        problem = None
        bits = ""
        if res.verdict == "SAT":
            problem = assignment_problem(self.clauses, self.n, res.assignment)
            if problem is None:
                bits = "".join(str(res.assignment[v]) for v in range(1, self.n + 1))
        elif res.verdict != "UNSAT":
            problem = "verdict %r" % (res.verdict,)
        behaviour = {
            "verdict": res.verdict,
            "assignment": bits,
            "path": stats.path,
            "nodes": stats.br3.nodes,
            "leaves": stats.br3.leaves,
            "balls": stats.dls.balls_searched,
            "code_sizes": {str(r): s for r, s in sorted(stats.dls.code_sizes.items())},
        }
        counters = {
            "nodes": stats.br3.nodes,
            "leaves": stats.br3.leaves,
            "splits": stats.br3.splits,
            "max_depth": stats.br3.max_depth,
            "phi_fires": len(stats.br3.phi_events),
            "branch_nodes": stats.branch_nodes,
            "balls": stats.dls.balls_searched,
        }
        return Solved(res.verdict, problem, behaviour, counters)


@dataclass(frozen=True)
class TableRow:
    """One row of the chain-type table, solved as ``reproduce_table2``
    solves it: the exact characteristic value and the f-value."""

    id: str
    type_id: int
    zeta: str
    r2: bool

    def solve(self) -> Solved:
        space = chains.solution_space(chains.canonical_realization(self.zeta))
        lam = characteristic.solve_characteristic(space, 3).lam
        b = chains.branch_number(self.zeta, self.r2)
        f = characteristic.f_raw(b, chains.eta_of_zeta(self.zeta), lam)
        behaviour = {"lambda": str(lam), "f": "%.10f" % f, "words": len(space.words)}
        return Solved(str(lam), None, behaviour, {})


def assignment_problem(clauses, n: int, assignment) -> Optional[str]:
    """The benchmark's own check of a SAT answer against the generated
    clauses; explicit code, so that ``python -O`` keeps it."""
    if not isinstance(assignment, dict):
        return "SAT without an assignment"
    for v in range(1, n + 1):
        if assignment.get(v) not in (0, 1):
            return "variable %d has value %r" % (v, assignment.get(v))
    for i, lits in enumerate(clauses):
        if not any((assignment[abs(l)] == 1) == (l > 0) for l in lits):
            return "clause %d falsified" % i
    return None


def digest(behaviour: dict) -> str:
    text = json.dumps(behaviour, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dimacs_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def family_id(fam: Family, seed: int) -> str:
    base = "k%d-n%d-d%g-s%d" % (fam.k, fam.n, fam.density, seed)
    return base if fam.c is None else base + "-c%g" % fam.c


def instances(name: str, smoke: bool = False) -> list:
    """Generate a workload's instances, in their stored order."""
    spec = (SMOKE if smoke else WORKLOADS)[name]
    if name == "table2":
        rows = {r[0]: r for r in REFERENCE_CHAIN_TYPES}
        return [
            TableRow("type%02d" % t, t, rows[t][1], rows[t][2]) for t in spec[0]
        ]
    out = []
    for fam in spec:
        for seed in fam.seeds:
            f = generator.gen_random_kcnf(fam.k, fam.n, round(fam.density * fam.n), seed)
            out.append(
                CnfInstance(
                    family_id(fam, seed),
                    formula.serialize_dimacs(f),
                    tuple(c.lits for c in f.clauses),
                    fam.n,
                    fam.c,
                )
            )
    return out


def reference_problem(inst, solved: Solved, ref: Optional[dict]) -> Optional[str]:
    """Compare one solve with the instance's stored reference."""
    if ref is None:
        return "no stored reference for %s" % inst.id
    if isinstance(inst, CnfInstance) and dimacs_sha(inst.dimacs) != ref["dimacs_sha256"]:
        return "generated input differs from the stored instance"
    if solved.verdict != ref["verdict"]:
        return "verdict %s, reference %s" % (solved.verdict, ref["verdict"])
    if isinstance(inst, TableRow) and not solved.behaviour["f"].startswith(ref["f_prefix"]):
        return "f=%s does not extend %s" % (solved.behaviour["f"], ref["f_prefix"])
    return None
