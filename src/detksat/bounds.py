"""Closed-form worst-case bases and consistency checks.

All logarithms are base 2. The 3-SAT base is 3^(log(4/3)/log(64/21)); higher
widths follow the recurrence that balances the branching cost against the
local-search cost over 1-chain instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

L = math.log2

# the widest k the recurrence is tabulated for, and so the widest clause the
# width-k branching takes
KMAX = 12


def c3() -> float:
    """3^(log(4/3) / log(64/21)), about 1.32793 rounded up."""
    return 3.0 ** nu1_3sat()


def nu1_3sat() -> float:
    """Worst-case 1-chain density for the 3-SAT balance."""
    return L(4 / 3) / L(64 / 21)


@dataclass(frozen=True)
class BoundRow:
    k: int
    ck: float
    nu: float


# the published bases are rounded up at this many digits
ROUND_DIGITS = 5
# the relative residual a balance check accepts
BALANCE_TOL = 1e-10


def round_up(x: float) -> float:
    scale = 10**ROUND_DIGITS
    return math.ceil(x * scale) / scale


def lambda_1chain(k: int) -> Fraction:
    return Fraction(k**k, (2 * k - 2) ** k - (k - 2) ** k)


def ck_recurrence(kmax: int) -> list[BoundRow]:
    """Rows (k, c_k, nu) for k = 3..kmax, seeded at the 3-SAT base."""
    if kmax > KMAX:
        raise ValueError("kmax guard: %d > %d" % (kmax, KMAX))
    if kmax < 3:
        raise ValueError("kmax must be >= 3")
    rows = [BoundRow(3, c3(), nu1_3sat())]
    for k in range(4, kmax + 1):
        cp = rows[-1].ck
        nu = (L(2 * k - 2) - L(k) - L(cp)) / (
            L(2**k - 1) - L(1 - ((k - 2) / (2 * k - 2)) ** k) - k * L(cp)
        )
        ck = (2**k - 1) ** nu * cp ** (1 - k * nu)
        rows.append(BoundRow(k, ck, nu))
    return rows


@functools.cache
def nu_k(k: int) -> float:
    """The threshold density of width k: the width-k branching hands an
    instance with at least nu_k * n disjoint k-clauses to the local search."""
    return ck_recurrence(k)[-1].nu


@dataclass(frozen=True)
class BalanceReport:
    k: int
    lhs: float
    rhs: float
    rel_err: float
    ok: bool


def balance_check(k: int) -> BalanceReport:
    """Branching cost equals local-search cost at the computed threshold.

    For k >= 4: (2^k-1)^nu c_{k-1}^(1-k nu) vs (2(k-1)/k)^(1-k nu) lam^-nu.
    For k = 3: both defining equations of the base meet at the same value.
    """
    if k == 3:
        nu = nu1_3sat()
        lhs = nu * L(3)
        rhs = L(4 / 3) - nu * (3 * L(4 / 3) + L(3 / 7))
        rel = abs(lhs - rhs) / abs(rhs)
        return BalanceReport(3, 2**lhs, 2**rhs, rel, rel <= BALANCE_TOL)
    rows = {r.k: r for r in ck_recurrence(k)}
    nu = rows[k].nu
    cp = rows[k - 1].ck
    lam = float(lambda_1chain(k))
    lhs = (2**k - 1) ** nu * cp ** (1 - k * nu)
    rhs = (2 * (k - 1) / k) ** (1 - k * nu) * lam ** (-nu)
    rel = abs(lhs - rhs) / abs(rhs)
    return BalanceReport(k, lhs, rhs, rel, rel <= BALANCE_TOL)


@dataclass(frozen=True)
class DegenerationReport:
    positive_base: float
    two_negative_base: float
    c3_value: float
    ok: bool


def degeneration_check() -> DegenerationReport:
    """Bases the algorithm degrades to without the clause-replacement rule
    or the amortized two-negative analysis; both must stay >= 1.328 and
    above the 3-SAT base."""
    cases = []
    for eta, lam in ((5, Fraction(81, 331)), (4, Fraction(15, 46))):
        ll = L(lam.numerator) - L(lam.denominator)
        x = L(4 / 3) / (L(9) + eta * L(4 / 3) + ll)
        cases.append(9.0**x)
    pos, tneg = cases
    base3 = c3()
    ok = pos >= 1.328 and tneg >= 1.328 and pos > base3 and tneg > base3
    if not ok:
        raise AssertionError(
            "degeneration bases %.6f/%.6f fail the 1.328 / c3 bound" % (pos, tneg)
        )
    return DegenerationReport(pos, tneg, base3, ok)
