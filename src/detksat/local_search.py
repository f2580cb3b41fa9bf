"""Derandomized local search: covering-code enumeration plus complete
bounded-radius ball search.

The ball search branches on the literals of the first unsatisfied clause
with a shrinking flip budget and never flips a variable back to its value
at the center; it finds a satisfying assignment within Hamming distance r
of the center iff one exists. Its state is an assignment word: the
unsatisfied clauses of a word are one bitset taken from the formula's
per-byte tables (``Formula.byte_sat_tables``), a flip is an XOR with a
precomputed variable bit, and a word whose sub-ball was already searched
and found empty in the current ball is not expanded again. Clause masks
(``Formula.clause_flips``) cut the last two flips without a table pass and
keep the first hit. dls forms the generalized covering family for the
formula's structured space (free-variable cube times chain solution
spaces), sets up one ball searcher, and scans each level with it in
ascending radius; it builds a level only when the search reaches its
radius, so a SAT formula builds no level past the radius of its first hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .chains import Instance, group_by_type, solution_space
from .characteristic import lambda_for_zeta
from .covering import CubeFactor, PowerFactor, StructuredSpace, build_generalized_code, cover_cube, cube_radius
from .formula import Formula, byte_tables, satisfies, verify_model


def ball_searcher(f: Formula) -> Callable[[Iterable[int], int], tuple[int, Optional[int]]]:
    """The ball search of f, set up once: ``scan(centers, r)`` searches the
    radius-r ball around each center word in turn, and returns the number
    of balls searched (the hit's included) and the first hit or None.

    In a word, bit v-1 is the value of variable v. A ball's search always
    branches the first unsatisfied clause in clause order, setting its
    literals true in clause order, one unit of budget per flip, and skips a
    literal whose variable already differs from the center (no flip back).

    The search is complete (Dantsin et al. 2002): take a solution s within
    distance r. A word reached by flipping only variables on which s differs
    from the center agrees with s on each of them, so a literal of its
    branched clause that s sets true is on an unflipped variable and is not
    skipped; following such literals reaches s. Every flip moves one step
    away from the center, so a word w is always reached with budget
    r - |w ^ center|, and a word whose sub-ball was searched and found empty
    is not expanded again, nor even evaluated (it is known unsatisfied).
    The set of such words lives for one ball, since the flips a sub-ball
    skips depend on its center.

    Two rules cut the last two levels without a table pass. Every literal
    of an unsatisfied clause is false and a flip changes only its own
    variable, so the flip that sets l true can satisfy the formula only if
    ``unsat & ~sets_l == 0``. With budget 1 a flip is tried (one table
    pass: it may falsify another clause) only if it passes that test. With
    budget 2, after the flip of l1 the clauses ``left = unsat & ~sets_l1``
    are still unsatisfied, and the one flip left must satisfy all of them,
    so its literal is in the first clause of ``left``; when ``left`` is not
    empty and no unmoved literal l2 of that clause has
    ``left & ~sets_l2 == 0``, the child is skipped unvisited. (That clause
    holds no literal of l1's variable: it is not satisfied by l1, and not l1
    is true at the parent, where the clause is false; so its unmoved
    literals are the same at the parent and at the child.) Both rules skip
    only subtrees that hold no solution and keep the depth-first order of
    the rest. A skipped child is not added to the empty set.
    """
    if f.has_bottom:
        raise ValueError("bottom clause present")
    full = (1 << len(f.clauses)) - 1
    tables = f.byte_sat_tables
    flips = f.clause_flips
    empty: set[int] = set()
    center = 0

    def rec(w: int, budget: int) -> Optional[int]:
        # w has not been expanded; budget is 0 only at a radius-0 center
        sat = 0
        rest = w
        for table in tables:
            sat |= table[rest & 255]
            rest >>= 8
        if sat == full:
            return w
        if budget == 0:
            return None
        unsat = full ^ sat
        moved = w ^ center
        # every literal of an unsatisfied clause is false, so setting it
        # true flips its bit
        branch = flips[(unsat & -unsat).bit_length() - 1]
        if budget == 1:
            for bit, sets in branch:
                if not moved & bit and not unsat & ~sets:
                    child = w ^ bit
                    sat = 0
                    rest = child
                    for table in tables:
                        sat |= table[rest & 255]
                        rest >>= 8
                    if sat == full:
                        return child
            empty.add(w)
            return None
        for bit, sets in branch:
            if moved & bit:
                continue
            left = unsat & ~sets
            if left and budget == 2:
                for bit2, sets2 in flips[(left & -left).bit_length() - 1]:
                    if not moved & bit2 and not left & ~sets2:
                        break
                else:
                    continue
            child = w ^ bit
            if child not in empty:
                hit = rec(child, budget - 1)
                if hit is not None:
                    return hit
        empty.add(w)
        return None

    def scan(centers: Iterable[int], r: int) -> tuple[int, Optional[int]]:
        nonlocal center
        if r < 0:
            raise ValueError("negative radius")
        balls = 0
        for balls, center in enumerate(centers, 1):
            empty.clear()
            if (hit := rec(center, r)) is not None:
                return balls, hit
        return balls, None

    return scan


@dataclass
class DlsStats:
    """Balls searched by every ``dls`` call sharing the stats (the sub-solves
    of ``br_k`` share one), and the centers of each radius of the code that
    the last call reached, reset by each call, ascending: every radius when
    the answer is UNSAT, and up to the radius of the hit when it is SAT."""

    balls_searched: int = 0
    code_sizes: dict[int, int] = field(default_factory=dict)


def structured_space_for(
    f: Formula, inst: Instance, k: int
) -> tuple[StructuredSpace, list[Fraction]]:
    """Free-variable cube times one power factor per chain-isomorphism group,
    and the group's characteristic value at width k, in group order. It
    forms the free cube's memoized code first, which builds nothing: the
    code size guard refuses an oversized cube there, before any lambda is
    solved (``build_generalized_code`` refuses an oversized family before
    any code is built)."""
    used = inst.variables()
    free = tuple(v for v in range(1, f.n + 1) if v not in used)
    cover_cube(len(free), cube_radius(len(free), k))
    factors: list = [CubeFactor(len(free), free)] if free else []
    lams: list[Fraction] = []
    for key, group in group_by_type(inst.chains).items():
        factors.append(PowerFactor(tuple(solution_space(ch) for ch in group)))
        lams.append(lambda_for_zeta(key, group[0], k))
    return StructuredSpace(tuple(factors)), lams


def _validate_instance_clauses(f: Formula, inst: Instance) -> None:
    have = {frozenset(c.lits) for c in f.clauses}
    for ch in inst.chains:
        for c in ch.clauses:
            if frozenset(c.lits) not in have:
                raise ValueError("instance clause %s not found in formula" % (c,))


def _center_words(centers: Iterable[int], word_tables: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """The assignment word of each center, in order."""
    for center in centers:
        word, rest = 0, center
        for table in word_tables:
            word |= table[rest & 255]
            rest >>= 8
        yield word


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
    stats = stats if stats is not None else DlsStats()
    stats.code_sizes = {}
    # bit i of a center is coordinate i's variable v, bit v-1 of the word
    word_tables = byte_tables([(0, 1 << (v - 1)) for v in space.coordinate_variables()])
    scan = ball_searcher(f)
    for r, centers in family.levels():
        stats.code_sizes[r] = len(centers)
        balls, hit = scan(_center_words(centers, word_tables), r)
        stats.balls_searched += balls
        if hit is not None:
            alpha = {v: (hit >> (v - 1)) & 1 for v in range(1, f.n + 1)}
            verify_model(f, alpha)
            return alpha
    return None
