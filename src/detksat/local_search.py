"""Derandomized local search: covering-code enumeration plus complete
bounded-radius ball search.

searchball branches on the literals of the first unsatisfied clause with a
shrinking flip budget; it finds a satisfying assignment within Hamming
distance r of the start iff one exists. dls builds the generalized covering
family for the formula's structured space (free-variable cube times chain
solution spaces) and runs searchball from every center, ascending by radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .chains import Instance, solution_space, zeta, canonical_zeta
from .characteristic import characteristic_for_chain, lambda_for_zeta
from .covering import (
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
)
from .formula import Formula, satisfies, verify_model


@dataclass(frozen=True)
class BallQuery:
    """A full-assignment center (bit i-1 is variable i) and a radius."""

    center: int
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("negative radius")

    def assignment(self, n: int) -> dict[int, int]:
        return {v: (self.center >> (v - 1)) & 1 for v in range(1, n + 1)}


def searchball(
    f: Formula, alpha: dict[int, int], r: int
) -> Optional[dict[int, int]]:
    """Complete search of the radius-r ball around a total assignment.

    Deterministic: always branches the first unsatisfied clause in clause
    order, flipping its literals in clause order. Returns None if the ball
    holds no satisfying assignment.
    """
    if f.has_bottom:
        raise ValueError("bottom clause present")
    cur = dict(alpha)

    def first_unsat() -> Optional[tuple[int, ...]]:
        for c in f.clauses:
            sat = False
            for l in c.lits:
                if (cur.get(abs(l), 0) == 1) == (l > 0):
                    sat = True
                    break
            if not sat:
                return c.lits
        return None

    def rec(budget: int) -> bool:
        lits = first_unsat()
        if lits is None:
            return True
        if budget == 0:
            return False
        for l in lits:
            v = abs(l)
            old = cur.get(v, 0)
            cur[v] = 1 if l > 0 else 0
            if rec(budget - 1):
                return True
            cur[v] = old
        return False

    return dict(cur) if rec(r) else None


@dataclass
class DlsStats:
    balls_searched: int = 0
    code_sizes: dict[int, int] = field(default_factory=dict)
    chain_groups: list[tuple[str, int]] = field(default_factory=list)


def structured_space_for(f: Formula, inst: Instance) -> StructuredSpace:
    """Free-variable cube times one power factor per chain-isomorphism group."""
    used = inst.variables()
    free = tuple(v for v in range(1, f.n + 1) if v not in used)
    factors: list = []
    if free:
        factors.append(CubeFactor(len(free), free))
    groups: dict[str, list] = {}
    order: list[str] = []
    for ch in inst.chains:
        key = canonical_zeta(zeta(ch.clauses))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(solution_space(ch))
    for key in order:
        factors.append(PowerFactor(tuple(groups[key])))
    return StructuredSpace(tuple(factors))


def _group_lambdas(f: Formula, inst: Instance, k: int) -> list[Fraction]:
    """One characteristic value per chain group, in group order."""
    seen: dict[str, Fraction] = {}
    order: list[str] = []
    for ch in inst.chains:
        key = canonical_zeta(zeta(ch.clauses))
        if key not in seen:
            order.append(key)
            if k == 3:
                seen[key] = lambda_for_zeta(key)
            else:
                seen[key] = characteristic_for_chain(ch, k).lam
    return [seen[key] for key in order]


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
        stats.chain_groups = [
            (canonical_zeta(zeta(ch.clauses)), len(ch.clauses)) for ch in inst.chains
        ]
    coord_vars = space.coordinate_variables()
    for r in family.radii():
        for center in family.entries[r]:
            word = 0
            for i, v in enumerate(coord_vars):
                word |= ((center >> i) & 1) << (v - 1)
            query = BallQuery(word, r)
            if stats is not None:
                stats.balls_searched += 1
            hit = searchball(f, query.assignment(f.n), query.radius)
            if hit is not None:
                verify_model(f, hit)
                return hit
    return None
