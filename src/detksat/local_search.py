"""Derandomized local search: covering-code enumeration plus complete
bounded-radius ball search.

searchball branches on the literals of the first unsatisfied clause with a
shrinking flip budget; it finds a satisfying assignment within Hamming
distance r of the start iff one exists. Its state is an assignment word, and
the unsatisfied clauses of a word are one bitset taken from the formula's
per-byte tables (``Formula.byte_sat_tables``). dls builds the generalized
covering family for the formula's structured space (free-variable cube times
chain solution spaces) and runs searchball from every center, ascending by
radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .chains import Instance, group_by_type, solution_space
from .characteristic import characteristic_for_chain, lambda_for_zeta
from .covering import (
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
)
from .formula import Formula, satisfies, verify_model


def searchball(f: Formula, center: int, r: int) -> Optional[int]:
    """Complete search of the radius-r ball around an assignment word.

    In a word, bit v-1 is the value of variable v. Deterministic: always
    branches the first unsatisfied clause in clause order, setting its
    literals true in clause order, one unit of budget per flip. Returns the
    first satisfying word found, or None if the ball holds none.
    """
    if f.has_bottom:
        raise ValueError("bottom clause present")
    if r < 0:
        raise ValueError("negative radius")
    clauses = f.clauses
    full = (1 << len(clauses)) - 1
    tables = f.byte_sat_tables

    def rec(w: int, budget: int) -> Optional[int]:
        sat = 0
        rest = w
        for table in tables:
            sat |= table[rest & 255]
            rest >>= 8
        unsat = full & ~sat
        if not unsat:
            return w
        if budget == 0:
            return None
        for l in clauses[(unsat & -unsat).bit_length() - 1].lits:
            bit = 1 << (abs(l) - 1)
            hit = rec(w | bit if l > 0 else w & ~bit, budget - 1)
            if hit is not None:
                return hit
        return None

    return rec(center, r)


@dataclass
class DlsStats:
    balls_searched: int = 0
    code_sizes: dict[int, int] = field(default_factory=dict)


def structured_space_for(f: Formula, inst: Instance) -> StructuredSpace:
    """Free-variable cube times one power factor per chain-isomorphism group."""
    used = inst.variables()
    free = tuple(v for v in range(1, f.n + 1) if v not in used)
    factors: list = []
    if free:
        factors.append(CubeFactor(len(free), free))
    for group in group_by_type(inst.chains).values():
        factors.append(PowerFactor(tuple(solution_space(ch) for ch in group)))
    return StructuredSpace(tuple(factors))


def _group_lambdas(f: Formula, inst: Instance, k: int) -> list[Fraction]:
    """One characteristic value per chain group, in group order."""
    return [
        lambda_for_zeta(key) if k == 3 else characteristic_for_chain(group[0], k).lam
        for key, group in group_by_type(inst.chains).items()
    ]


def _validate_instance_clauses(f: Formula, inst: Instance) -> None:
    have = {frozenset(c.lits) for c in f.clauses}
    for ch in inst.chains:
        for c in ch.clauses:
            if frozenset(c.lits) not in have:
                raise ValueError("instance clause %s not found in formula" % (c,))


def dls(
    f: Formula,
    inst: Optional[Instance] = None,
    stats: Optional[DlsStats] = None,
) -> Optional[dict[int, int]]:
    """Covering-code local search over the space carved out by the instance.

    With an empty instance this is plain covering-code search of the cube.
    Returns a verified satisfying assignment or None (unsatisfiable).
    """
    if f.has_bottom:
        return None
    inst = inst if inst is not None else Instance(())
    _validate_instance_clauses(f, inst)
    k = max(3, f.width())
    space = structured_space_for(f, inst)
    if space.width == 0:
        # no variables at all: the empty assignment decides it
        alpha = {v: 0 for v in range(1, f.n + 1)}
        return alpha if satisfies(f, alpha) else None
    lams = _group_lambdas(f, inst, k)
    family = build_generalized_code(space, Fraction(1, k), lams, k)
    if stats is not None:
        stats.code_sizes = {r: len(cs) for r, cs in family.entries.items()}
    coord_vars = space.coordinate_variables()
    for r in family.radii():
        for center in family.entries[r]:
            word = 0
            for i, v in enumerate(coord_vars):
                word |= ((center >> i) & 1) << (v - 1)
            if stats is not None:
                stats.balls_searched += 1
            hit = searchball(f, word, r)
            if hit is not None:
                alpha = {v: (hit >> (v - 1)) & 1 for v in range(1, f.n + 1)}
                verify_model(f, alpha)
                return alpha
    return None
