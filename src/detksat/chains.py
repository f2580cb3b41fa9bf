"""Chains, instances, solution spaces, type strings and branch numbers.

A tau-chain is a sequence of k-clauses where exactly the neighbouring clauses
share variables. Adjacent-pair overlaps are encoded over the alphabet
``* n p t`` (independent / one shared variable with opposite polarity / one
shared with the same polarity / two shared, both opposite); the encoding of a
clause sequence always ends in ``*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .formula import Clause, clause


class ChainError(ValueError):
    pass


class OverlapError(ValueError):
    """Adjacent clause pair outside the four supported overlap cases."""


SOLUTION_SPACE_VAR_LIMIT = 24

# extra variables a continuation symbol brings into a chain
ETA_INCREMENT = {"n": 2, "p": 2, "t": 1}


@dataclass(frozen=True)
class Chain:
    clauses: tuple[Clause, ...]
    k: int

    def variables(self) -> set[int]:
        out: set[int] = set()
        for c in self.clauses:
            out.update(c.variables())
        return out

    def var_order(self) -> tuple[int, ...]:
        """Variables in first-occurrence order (clauses, then literal order)."""
        seen: list[int] = []
        for c in self.clauses:
            for l in c.lits:
                v = abs(l)
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.clauses)


def build_chain(clauses_: Sequence[Clause], k: int) -> Chain:
    """Validate the overlap pattern: V(Ci) and V(Cj) disjoint iff |i-j| > 1."""
    cs = tuple(clauses_)
    if not cs:
        raise ChainError("empty chain")
    for i, c in enumerate(cs):
        if c.width != k:
            raise ChainError("clause %d has width %d, expected %d" % (i, c.width, k))
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            shared = cs[i].variables() & cs[j].variables()
            if j - i > 1 and shared:
                raise ChainError(
                    "non-adjacent clauses (%d,%d) share variables %s" % (i, j, sorted(shared))
                )
            if j - i == 1 and not shared:
                raise ChainError("adjacent clauses (%d,%d) are independent" % (i, j))
    return Chain(cs, k)


@dataclass(frozen=True)
class Instance:
    """Set of mutually variable-disjoint chains."""

    chains: tuple[Chain, ...]

    def variables(self) -> set[int]:
        out: set[int] = set()
        for s in self.chains:
            out.update(s.variables())
        return out

    def __len__(self) -> int:
        return len(self.chains)

    def type_counts(self) -> dict[str, int]:
        """Number of chains of each canonical type, in first-occurrence order."""
        return {key: len(g) for key, g in group_by_type(self.chains).items()}


def build_instance(chains: Sequence[Chain]) -> Instance:
    seen: set[int] = set()
    for idx, s in enumerate(chains):
        vs = s.variables()
        if vs & seen:
            raise ChainError(
                "chains are not variable-disjoint at chain %d (%s)" % (idx, sorted(vs & seen))
            )
        seen |= vs
    return Instance(tuple(chains))


@dataclass(frozen=True)
class SolutionSpace:
    """Satisfying words of a chain, packed as ints over the variable order.

    Bit i of a word is the value of ``var_order[i]``.
    """

    words: tuple[int, ...]
    var_order: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.var_order)

    def __len__(self) -> int:
        return len(self.words)


def solution_space(chain: Chain) -> SolutionSpace:
    order = chain.var_order()
    nv = len(order)
    if nv > SOLUTION_SPACE_VAR_LIMIT:
        raise ChainError("solution space guard: %d variables > %d" % (nv, SOLUTION_SPACE_VAR_LIMIT))
    bit = {v: 1 << i for i, v in enumerate(order)}
    # a clause is falsified exactly on the words that take its literals'
    # false values on its variables: (w & mask) == value
    falsified = [
        (sum(bit[abs(l)] for l in c.lits), sum(bit[abs(l)] for l in c.lits if l < 0))
        for c in chain.clauses
    ]
    words: list[int] = []
    step = 1 << min(nv, 16)  # at most 2^16 words at a time
    for start in range(0, 1 << nv, step):
        w = np.arange(start, start + step, dtype=np.int64)
        ok = np.ones(step, dtype=bool)
        for mask, value in falsified:
            ok &= (w & mask) != value
        words.extend(w[ok].tolist())
    if not words:
        raise ChainError("chain has empty solution space")
    return SolutionSpace(tuple(words), order)


# ---------------------------------------------------------------------------
# type strings


def overlap_symbol(a: Sequence[int], b: Sequence[int]) -> str:
    """Classify the overlap of two clauses (as literal tuples)."""
    va = {abs(l): l for l in a}
    vb = {abs(l): l for l in b}
    shared = sorted(set(va) & set(vb))
    if not shared:
        return "*"
    if len(shared) == 1:
        v = shared[0]
        return "p" if va[v] == vb[v] else "n"
    if len(shared) == 2 and all(va[v] == -vb[v] for v in shared):
        return "t"
    raise OverlapError("unsupported overlap between %r and %r" % (tuple(a), tuple(b)))


def zeta(clauses_: Sequence[Clause]) -> str:
    """Type string of a clause sequence, each clause as the formula gave it."""
    syms = [
        overlap_symbol(clauses_[i].lits, clauses_[i + 1].lits)
        for i in range(len(clauses_) - 1)
    ]
    return "".join(syms) + "*"


def transform(clauses_: Sequence[Clause]) -> Instance:
    """Partition a clause sequence at the ``*`` positions into an instance."""
    if not clauses_:
        return Instance(())
    z = zeta(clauses_)
    chains: list[Chain] = []
    cur: list[Clause] = []
    for c, s in zip(clauses_, z):
        cur.append(c)
        if s == "*":
            chains.append(build_chain(cur, cur[0].width))
            cur = []
    return build_instance(chains)


def branch_number(zeta_str: str, r2: bool = False) -> Fraction:
    """2^#p * 3^(#* + #n) * (7/3)^#t, doubled for forced terminations."""
    k1 = zeta_str.count("p")
    k2 = zeta_str.count("*") + zeta_str.count("n")
    k3 = zeta_str.count("t")
    b = Fraction(2) ** k1 * Fraction(3) ** k2 * Fraction(7, 3) ** k3
    return 2 * b if r2 else b


def eta_of_zeta(zeta_str: str) -> int:
    """Variable count of a chain with the given (terminated) type string."""
    if not zeta_str.endswith("*"):
        raise ValueError("type string must end in '*'")
    return 3 + sum(ETA_INCREMENT[s] for s in zeta_str[:-1])


def canonical_zeta(zeta_str: str) -> str:
    """Reversal-equivalent representative: lexicographic min of the prefix."""
    body = zeta_str[:-1]
    return min(body, body[::-1]) + "*"


def group_by_type(chains: Iterable[Chain]) -> dict[str, list[Chain]]:
    """Chains grouped by canonical type string, groups in first-occurrence
    order and chains in input order within a group."""
    groups: dict[str, list[Chain]] = {}
    for ch in chains:
        groups.setdefault(canonical_zeta(zeta(ch.clauses)), []).append(ch)
    return groups


def canonical_realization(zeta_str: str) -> Chain:
    """Concrete 3-CNF chain realizing a type string, all-positive baseline.

    Continuations share the last free variable(s) of the previous clause:
    n negates it, p repeats it, t negates the last two.
    """
    if not zeta_str.endswith("*"):
        raise ValueError("type string must end in '*'")
    body = zeta_str[:-1]
    if any(s not in "npt" for s in body):
        raise ValueError("bad symbols in %r" % zeta_str)
    if "tt" in body:
        # a middle clause cannot share two variables with each neighbour
        raise ValueError("unrealizable pattern 'tt' in %r" % zeta_str)
    cls = [clause((1, 2, 3))]
    nxt = 4
    for s in body:
        prev = cls[-1].lits
        if s == "n":
            c = clause((-prev[-1], nxt, nxt + 1))
            nxt += 2
        elif s == "p":
            c = clause((prev[-1], nxt, nxt + 1))
            nxt += 2
        else:  # t: the last two variables, both flipped
            c = clause((-prev[-2], -prev[-1], nxt))
            nxt += 1
        cls.append(c)
    return build_chain(cls, 3)
