"""Seeded random k-CNF generation with a frozen, documented PRNG.

The PRNG is a 64-bit linear congruential generator,

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,

outputting the top 31 bits of each new state; ``below(n)`` reduces an output
modulo n. It is frozen so generated instances are byte-identical across
platforms and versions.
"""

from __future__ import annotations

from .formula import Clause, Formula

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def next_u31(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state >> 33

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u31() % n

    def bit(self) -> int:
        return self.next_u31() & 1


def gen_random_kcnf(k: int, n: int, m: int, seed: int) -> Formula:
    """m clauses, each k distinct variables with uniform polarities.

    A draw with a repeated variable is rejected and the whole clause redrawn.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if k > n:
        raise ValueError("k=%d exceeds n=%d" % (k, n))
    if m < 0:
        raise ValueError("m must be nonnegative")
    rng = Lcg(seed)
    clauses = []
    for _ in range(m):
        while True:
            vs = [rng.below(n) + 1 for _ in range(k)]
            if len(set(vs)) == k:
                break
        lits = tuple(v if rng.bit() else -v for v in vs)
        clauses.append(Clause(lits))
    return Formula(n, tuple(clauses))
