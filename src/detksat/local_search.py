"""Derandomized local search: covering-code enumeration plus complete
bounded-radius ball search.

searchball branches on the literals of the first unsatisfied clause with a
shrinking flip budget and never flips a variable back to its value at the
center; it finds a satisfying assignment within Hamming distance r of the
start iff one exists. Its state is an assignment word: the unsatisfied
clauses of a word are one bitset taken from the formula's per-byte tables
(``Formula.byte_sat_tables``), a flip is an XOR with a precomputed variable
bit (``Formula.clause_bits``), and a word whose sub-ball was already searched
and found empty is not expanded again. dls builds the generalized
covering family for the formula's structured space (free-variable cube times
chain solution spaces) and runs searchball from every center, ascending by
radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .chains import Chain, Instance, canonical_zeta, group_by_type, solution_space
from .characteristic import characteristic_for_chain, lambda_for_zeta
from .covering import (
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
    cube_radius,
)
from .formula import Formula, satisfies, verify_model


def searchball(f: Formula, center: int, r: int) -> Optional[int]:
    """Complete search of the radius-r ball around an assignment word.

    In a word, bit v-1 is the value of variable v. Deterministic: always
    branches the first unsatisfied clause in clause order, setting its
    literals true in clause order, one unit of budget per flip, and never
    flips a variable back: a literal whose variable already differs from
    ``center`` is skipped. Returns the first satisfying word found in that
    order, or None if the ball holds none.

    The search is complete (Dantsin et al. 2002): take a solution s within
    distance r. A word reached by flipping only variables on which s differs
    from the center agrees with s on each of them, so a literal of its
    branched clause that s sets true is on an unflipped variable and is not
    skipped; following such literals reaches s. Every flip moves one step
    away from the center, so a word w is always reached with budget
    r - |w ^ center|, and a word whose sub-ball was searched and found empty
    is not expanded again. The set of such words lives for one call.
    """
    if f.has_bottom:
        raise ValueError("bottom clause present")
    if r < 0:
        raise ValueError("negative radius")
    full = (1 << len(f.clauses)) - 1
    tables = f.byte_sat_tables
    flips = f.clause_bits
    empty: set[int] = set()

    def rec(w: int, budget: int) -> Optional[int]:
        sat = 0
        rest = w
        for table in tables:
            sat |= table[rest & 255]
            rest >>= 8
        unsat = full & ~sat
        if not unsat:
            return w
        if budget == 0 or w in empty:
            return None
        moved = w ^ center
        for bit in flips[(unsat & -unsat).bit_length() - 1]:
            # every literal of an unsatisfied clause is false, so setting
            # it true flips its bit
            if not moved & bit:
                hit = rec(w ^ bit, budget - 1)
                if hit is not None:
                    return hit
        empty.add(w)
        return None

    return rec(center, r)


@dataclass
class DlsStats:
    balls_searched: int = 0
    code_sizes: dict[int, int] = field(default_factory=dict)


# lambda by (canonical type, clause width, k), for the whole process
_GROUP_LAMBDAS: dict[tuple[str, int, int], Fraction] = {}


def group_lambda(key: str, chain: Chain, k: int) -> Fraction:
    """The characteristic value at width k of a chain group of type ``key``
    whose clauses have ``chain.k`` literals, solved once per process. The
    type and the clause width fix the chain's solution space up to a
    permutation and sign flips of its coordinates, which keep lambda; the
    value is ``lambda_for_zeta``'s, which the branching shares, at k = 3,
    and an exact solve of ``chain`` at any other k."""
    memo = (canonical_zeta(key), chain.k, k)
    if memo not in _GROUP_LAMBDAS:
        _GROUP_LAMBDAS[memo] = lambda_for_zeta(key) if k == 3 else characteristic_for_chain(chain, k).lam
    return _GROUP_LAMBDAS[memo]


def structured_space_for(
    f: Formula, inst: Instance, k: int
) -> tuple[StructuredSpace, list[Fraction]]:
    """Free-variable cube times one power factor per chain-isomorphism group,
    and the group's characteristic value at width k, in group order. A cube
    whose code would pass the code size guard is refused first."""
    used = inst.variables()
    free = tuple(v for v in range(1, f.n + 1) if v not in used)
    cube_radius(len(free), k)  # an oversized cube is refused before any lambda
    factors: list = [CubeFactor(len(free), free)] if free else []
    lams: list[Fraction] = []
    for key, group in group_by_type(inst.chains).items():
        factors.append(PowerFactor(tuple(solution_space(ch) for ch in group)))
        lams.append(group_lambda(key, group[0], k))
    return StructuredSpace(tuple(factors)), lams


def _validate_instance_clauses(f: Formula, inst: Instance) -> None:
    have = {frozenset(c.lits) for c in f.clauses}
    for ch in inst.chains:
        for c in ch.clauses:
            if frozenset(c.lits) not in have:
                raise ValueError("instance clause %s not found in formula" % (c,))


def _byte_word_tables(coord_vars: tuple[int, ...]) -> list[list[int]]:
    """Assignment-word bits set by each byte of a center.

    Coordinate i of a center is variable ``coord_vars[i]``, bit v-1 of the
    assignment word. Table j maps the byte of coordinates 8j..8j+7 to the
    word bits of its ones, so a center's word is the union of one entry per
    byte (``Formula.byte_sat_tables`` reads a word the same way).
    """
    tables = []
    for base in range(0, len(coord_vars), 8):
        tab = [0]
        for v in coord_vars[base : base + 8]:
            tab += [t | 1 << (v - 1) for t in tab]
        tables.append(tab)
    return tables


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
    space, lams = structured_space_for(f, inst, k)
    if space.width == 0:
        # no variables at all: the empty assignment decides it
        alpha = {v: 0 for v in range(1, f.n + 1)}
        return alpha if satisfies(f, alpha) else None
    family = build_generalized_code(space, lams, k)
    if stats is not None:
        stats.code_sizes = {r: len(cs) for r, cs in family.entries.items()}
    word_tables = _byte_word_tables(space.coordinate_variables())
    for r in family.radii():
        for center in family.entries[r]:
            word, rest = 0, center
            for table in word_tables:
                word |= table[rest & 255]
                rest >>= 8
            if stats is not None:
                stats.balls_searched += 1
            hit = searchball(f, word, r)
            if hit is not None:
                alpha = {v: (hit >> (v - 1)) & 1 for v in range(1, f.n + 1)}
                verify_model(f, alpha)
                return alpha
    return None
