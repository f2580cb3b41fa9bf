"""Branching for general k-SAT and the top-level solve dispatch.

For width k >= 4: greedily collect a maximal set of variable-disjoint
k-clauses. Below the threshold fraction, branch over every satisfying
pattern of the collected clauses (the residual formula is a (k-1)-CNF by
maximality) and recurse; at or above it, hand the instance to the
derandomized local search. Width 3 goes to the specialized 3-SAT branching,
width <= 2 to the polynomial 2-SAT decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional

from .branching3 import Br3Stats, PhiConfig, br_3
from .bounds import nu_k
from .chains import Chain, Instance, build_chain, build_instance
from .formula import Formula, lit_values, restrict, solve_2sat, verify_model
from .local_search import DlsStats, dls
from .outcomes import UNSAT, SolveResult, answer


def greedy_maximal_1chains(f: Formula) -> Instance:
    """Maximal variable-disjoint set of width-k clauses, in clause order."""
    k = f.width()
    used: set[int] = set()
    chains: list[Chain] = []
    for c in f.clauses:
        if c.width != k:
            continue
        vs = c.variables()
        if vs & used:
            continue
        used |= vs
        chains.append(build_chain([c], k))
    return build_instance(chains)


def _patterns(k: int):
    """Nonzero literal-truth vectors in ascending lexicographic order."""
    return [p for p in iproduct((0, 1), repeat=k) if any(p)]


def br_k(
    f: Formula,
    phi_cfg: Optional[PhiConfig] = None,
    stats: Optional["SolveStats"] = None,
    trace=None,
) -> SolveResult:
    """Either solve by branching into the (k-1)-SAT solver, which gets
    ``phi_cfg`` and ``trace``, or return the instance for local search. A
    SAT answer, the sub-solve's model with the branch's literals, is checked
    against ``f``."""
    k = f.width()
    if k < 4:
        raise ValueError("br_k expects width >= 4")
    inst = greedy_maximal_1chains(f)
    if len(inst) >= nu_k(k) * f.n:
        return SolveResult("INSTANCE", instance=inst)
    pattern_sets = [_patterns(k) for _ in inst.chains]
    for combo in iproduct(*pattern_sets):
        alpha: dict[int, int] = {}
        for chain, pat in zip(inst.chains, combo):
            alpha.update(lit_values(chain.clauses[0].lits, pat))
        if stats is not None:
            stats.branch_nodes += 1
        sub = solve_ksat(restrict(f, alpha), phi_cfg, stats, trace)
        if sub.verdict == "SAT":
            model = {**sub.assignment, **alpha}
            verify_model(f, model)
            return SolveResult("SAT", model)
    return UNSAT


@dataclass
class SolveStats:
    branch_nodes: int = 0
    path: str = ""
    br3: Br3Stats = field(default_factory=Br3Stats)
    dls: DlsStats = field(default_factory=DlsStats)
    chain_vector: dict[str, int] = field(default_factory=dict)


def solve_ksat(
    f: Formula,
    phi_cfg: Optional[PhiConfig] = None,
    stats: Optional[SolveStats] = None,
    trace=None,
) -> SolveResult:
    """Full pipeline: branching either solves the formula or yields an
    instance, which the derandomized local search finishes, so the answer
    is SAT or UNSAT. Every SAT answer is checked against the formula once,
    by the solver that built it: ``br_3``, ``br_k`` (its combined model),
    ``dls``, or here for 2-SAT."""
    stats = stats if stats is not None else SolveStats()
    w = f.width()
    if f.has_bottom:
        out = UNSAT
    elif w <= 2:
        stats.path = stats.path or "2SAT"
        out = answer(solve_2sat(f))
        if out.verdict == "SAT":
            verify_model(f, out.assignment)
    elif w == 3:
        out = br_3(f, phi_cfg, trace=trace, stats=stats.br3)
    else:
        out = br_k(f, phi_cfg, stats, trace)
    if out.verdict == "INSTANCE":
        stats.path = "DLS"
        stats.chain_vector = out.instance.type_counts()
        out = answer(dls(f, out.instance, stats=stats.dls))
    stats.path = stats.path or "BR-solved"
    return out
