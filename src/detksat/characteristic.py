"""Exact characteristic values and distributions of chain solution spaces.

For a solution space A and width parameter k, the characteristic pair
(lambda, pi) is the unique solution of the square system

    sum_a pi(a) = 1
    sum_a pi(a) * (1/(k-1))^d(a, a*) = lambda   for every a* in A
    pi(a) >= 0

Equivalently M y = 1 with M[a*,a] = (1/(k-1))^d(a,a*), lambda = 1/sum(y) and
pi = lambda * y. The system is solved modulo word-size primes; after each
prime the residues are CRT-combined and rationally reconstructed, and the
first reconstruction that verifies exactly (integer arithmetic,
tensor-structured matrix-vector product) is the result, so the output is
certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .chains import (
    Chain,
    ChainTypeRecord,
    branch_number,
    canonical_realization,
    canonical_zeta,
    eta_of_zeta,
    solution_space,
    SolutionSpace,
)
from .formula import hamming

SPACE_LIMIT = 4096
DENSE_LIMIT = 0  # every solve is modular; bench/tracer.py reads the name

# primes just below 2**31; residue products stay inside int64
_PRIMES = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
)


class CharacteristicError(ValueError):
    pass


@dataclass(frozen=True)
class Characteristic:
    lam: Fraction
    pi: dict[int, Fraction]


class _SingularModP(Exception):
    pass


def _popcount_matrix(words: Sequence[int]) -> np.ndarray:
    wa = np.asarray(words, dtype=np.int64)
    xor = wa[:, None] ^ wa[None, :]
    return np.bitwise_count(xor).astype(np.int64)


def _solve_mod_prime(dmat: np.ndarray, k: int, p: int) -> np.ndarray:
    """Solve M y = 1 over GF(p) with M = inv(k-1)^d. Raises on zero pivot."""
    n = dmat.shape[0]
    inv = pow(k - 1, p - 2, p)
    powtab = np.array(
        [pow(inv, j, p) for j in range(int(dmat.max()) + 1)], dtype=np.int64
    )
    a = np.empty((n, n + 1), dtype=np.int64)
    a[:, :n] = powtab[dmat]
    a[:, n] = 1
    for col in range(n):
        nz = np.nonzero(a[col:, col])[0]
        if nz.size == 0:
            raise _SingularModP(col)
        piv = col + int(nz[0])
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        ip = pow(int(a[col, col]), p - 2, p)
        a[col, col:] = a[col, col:] * ip % p
        rows = a[col + 1 :, col]
        nzr = np.nonzero(rows)[0]
        if nzr.size:
            sub = a[col + 1 :, col:]
            sub[nzr] = (sub[nzr] - rows[nzr, None] * a[col, col:]) % p
    x = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        x[i] = a[i, n]
        if i:
            a[:i, n] = (a[:i, n] - a[:i, i] * x[i]) % p
    return x


def _rational_reconstruct(c: int, m: int) -> Optional[Fraction]:
    bound = math.isqrt(m // 2)
    r0, r1 = m, c % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(num, den) != 1:
        return None
    if (num - c * den) % m != 0:
        return None
    return Fraction(num, den)


def _verify_exact(words: Sequence[int], width: int, k: int, y: list[Fraction]) -> bool:
    """Check M y = 1 exactly. Tensor contraction over the ambient cube."""
    den = 1
    for f in y:
        den = den * f.denominator // math.gcd(den, f.denominator)
    if width <= 16:
        v = [0] * (1 << width)
        for w, f in zip(words, y):
            v[w] = int(f * den)
        for axis in range(width):
            bit = 1 << axis
            for w in range(1 << width):
                if w & bit:
                    continue
                a, b = v[w], v[w | bit]
                v[w] = (k - 1) * a + b
                v[w | bit] = a + (k - 1) * b
        target = den * (k - 1) ** width
        return all(v[w] == target for w in words)
    nums = [int(f * den) for f in y]
    scale = [(k - 1) ** j for j in range(width + 1)]
    target = den * (k - 1) ** width
    for wi in words:
        acc = 0
        for wj, nj in zip(words, nums):
            acc += nj * scale[width - hamming(wi, wj)]
        if acc != target:
            return False
    return True


def solve_characteristic(space: SolutionSpace, k: int) -> Characteristic:
    """Exact (lambda, pi) for a solution space; output is verified."""
    words = space.words
    n = len(words)
    if k < 3:
        raise CharacteristicError("k must be >= 3")
    if n > SPACE_LIMIT:
        raise CharacteristicError("space guard: %d words > %d" % (n, SPACE_LIMIT))
    y = _solve_modular(words, space.width, k)
    total = sum(y, Fraction(0))
    if total <= 0:
        raise CharacteristicError("non-positive normalisation sum")
    lam = 1 / total
    pi = {w: f * lam for w, f in zip(words, y)}
    for w, f in pi.items():
        if f < 0:
            raise CharacteristicError("negative pi component at word %d" % w)
    if not (0 < lam < 1):
        raise CharacteristicError("lambda %s outside (0,1)" % lam)
    return Characteristic(lam, pi)


def _solve_modular(words: Sequence[int], width: int, k: int) -> list[Fraction]:
    """y with M y = 1: the residues of one more prime at a time are CRT-combined
    and reconstructed until a reconstruction verifies exactly."""
    dmat = _popcount_matrix(words)
    n = len(words)
    residues: list[np.ndarray] = []
    primes: list[int] = []
    singular_hits = 0
    for p in _PRIMES:
        try:
            res = _solve_mod_prime(dmat, k, p)
        except _SingularModP:
            singular_hits += 1
            if singular_hits >= 3:
                raise CharacteristicError("system appears singular")
            continue
        residues.append(res)
        primes.append(p)
        y = _combine(residues, primes, n)
        if y is not None and _verify_exact(words, width, k, y):
            return y
    raise CharacteristicError("rational reconstruction failed with %d primes" % len(primes))


def _combine(residues: list[np.ndarray], primes: list[int], n: int) -> Optional[list[Fraction]]:
    m = 1
    combined = [0] * n
    for res, p in zip(residues, primes):
        if m == 1:
            combined = [int(v) for v in res]
            m = p
            continue
        inv = pow(m % p, p - 2, p)
        for i in range(n):
            diff = (int(res[i]) - combined[i]) % p
            combined[i] = combined[i] + m * (diff * inv % p)
        m *= p
    out: list[Fraction] = []
    for c in combined:
        f = _rational_reconstruct(c, m)
        if f is None:
            return None
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# closed form for the 1-chain


def closed_form_1chain(k: int) -> Characteristic:
    """Exact characteristic of the all-positive 1-chain on k variables."""
    if k < 3:
        raise CharacteristicError("k must be >= 3")
    denom = (2 * k - 2) ** k - (k - 2) ** k
    lam = Fraction(k**k, denom)
    scale = Fraction((k - 1) ** k, denom)
    pi: dict[int, Fraction] = {}
    for w in range(1, 1 << k):
        d = w.bit_count()
        pi[w] = scale * (1 - Fraction(-1, k - 1) ** d)
    return Characteristic(lam, pi)


# ---------------------------------------------------------------------------
# f-values and the reference table

_LAMBDA_CACHE: dict[str, Fraction] = {}


def lambda_for_zeta(zeta_str: str) -> Fraction:
    """Characteristic value of the canonical 3-CNF chain for a type string."""
    key = canonical_zeta(zeta_str)
    if key not in _LAMBDA_CACHE:
        chain = canonical_realization(key)
        _LAMBDA_CACHE[key] = solve_characteristic(solution_space(chain), 3).lam
    return _LAMBDA_CACHE[key]


def f_raw(b: Fraction, eta: int, lam: Fraction) -> float:
    """log b / (log b + eta log(4/3) + log lambda), 53-bit arithmetic."""
    lb = math.log2(b.numerator) - math.log2(b.denominator)
    ll = math.log2(lam.numerator) - math.log2(lam.denominator)
    return lb / (lb + eta * math.log2(4 / 3) + ll)


def f_value(rec: ChainTypeRecord) -> float:
    return f_raw(rec.b, rec.eta, rec.lam)


F1 = f_raw(Fraction(3), 3, Fraction(3, 7))


class Table2Error(AssertionError):
    pass


def reproduce_table2() -> list[ChainTypeRecord]:
    """Solve the LP for all 38 reference types and check against the table.

    Each lambda comes from ``lambda_for_zeta``, so a process solves each type
    once. Raises Table2Error with an itemized diff on any mismatch.
    """
    from .table_data import REFERENCE_CHAIN_TYPES

    records: list[ChainTypeRecord] = []
    problems: list[str] = []
    for type_id, z, r2, lam_str, f_prefix in REFERENCE_CHAIN_TYPES:
        lam = lambda_for_zeta(z)
        expected = Fraction(lam_str)
        if lam != expected:
            problems.append(
                "type %d (%s): computed lambda %s, expected %s" % (type_id, z, lam, expected)
            )
        b = branch_number(z, r2)
        eta = eta_of_zeta(z)
        f = f_raw(b, eta, lam)
        if not ("%.10f" % f).startswith(f_prefix):
            problems.append(
                "type %d (%s): f=%.7f does not extend prefix %s" % (type_id, z, f, f_prefix)
            )
        records.append(ChainTypeRecord(type_id, z, r2, b, eta, lam, f))
    best = max(records, key=lambda r: r.f)
    if best.type_id != 1:
        problems.append("argmax f is type %d, expected 1" % best.type_id)
    if problems:
        raise Table2Error("reference table mismatch:\n  " + "\n  ".join(problems))
    return records


def characteristic_for_chain(chain: Chain, k: int) -> Characteristic:
    return solve_characteristic(solution_space(chain), k)
