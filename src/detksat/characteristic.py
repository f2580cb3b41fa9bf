"""Exact characteristic values and distributions of chain solution spaces,
and the chain-type table built from them.

For a solution space A and width parameter k, the characteristic pair
(lambda, pi) is the unique solution of the square system

    sum_a pi(a) = 1
    sum_a pi(a) * (1/(k-1))^d(a, a*) = lambda   for every a* in A
    pi(a) >= 0

Equivalently M y = 1 with M[a*,a] = (1/(k-1))^d(a,a*), lambda = 1/sum(y) and
pi = lambda * y.

M depends only on Hamming distances, so a distance-preserving map of the
cube that sends A onto itself leaves the unique y unchanged, and y is
constant on the orbits of such maps. The solve takes as generators the
coordinate transpositions (i j) that send A onto itself, plainly or with
both coordinates flipped, and solves the system on orbits R y = 1 with one
unknown y_O per orbit, one equation per orbit representative a* and
R[a*, O] = sum over a in O of (1/(k-1))^d(a*, a); lambda = 1/sum |O| y_O.
A space without such a transposition has singleton orbits and R = M.

R is nonsingular over Q. Let E be the words-by-orbits membership matrix and
suppose R z = 0. Then M E z is invariant under the generators and vanishes
on the representatives, so it vanishes everywhere. M is positive definite,
as a principal submatrix of the Kronecker power of [[1, q], [q, 1]] with
q = 1/(k-1) < 1, so E z = 0 and z = 0.

R y = 1 is solved modulo 25-bit primes, small enough that the elimination
reduces a row only when it becomes the pivot row, in an order of the
representatives oriented by each coordinate's majority value; after each
prime the residues are CRT-combined and rationally reconstructed per orbit,
and the first reconstruction whose expansion to every word satisfies the
full system M y = 1 exactly (integer arithmetic, tensor-structured
matrix-vector product) is the result. M is nonsingular, so that y is the
unique solution: the output is certified, and a symmetry detected wrongly
can only make a solve fail, never return a wrong value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .chains import (
    Chain,
    branch_number,
    canonical_realization,
    canonical_zeta,
    eta_of_zeta,
    solution_space,
    SolutionSpace,
)
from .bounds import lambda_1chain
from .formula import hamming
from .table_data import REFERENCE_CHAIN_TYPES

SPACE_LIMIT = 4096
DENSE_LIMIT = 0  # every solve is modular; bench/tracer.py reads the name

# primes just below 2**25: an entry takes at most SPACE_LIMIT updates of a
# product below 2**50 before it is reduced, so it stays inside int64
# (pinned in tests/test_characteristic.py)
_PRIMES = (
    33554393, 33554383, 33554371, 33554347, 33554341,
    33554317, 33554291, 33554273, 33554267, 33554249,
)


class CharacteristicError(ValueError):
    pass


@dataclass(frozen=True)
class Characteristic:
    lam: Fraction
    pi: dict[int, Fraction]


class _SingularModP(Exception):
    pass


def _signed_transpositions(wa: np.ndarray, width: int) -> list[tuple[int, int, bool, np.ndarray]]:
    """The coordinate transpositions (i j), plain or with both coordinates
    flipped, that map the words onto themselves, as (i, j, flip, perm) with
    perm[x] the index of the image of wa[x]."""
    n = len(wa)
    srt = np.argsort(wa)
    sw = wa[srt]
    bits = (wa[:, None] >> np.arange(width)) & 1
    ones = bits.sum(axis=0)
    found = []
    for i in range(width):
        for j in range(i + 1, width):
            pair = (1 << i) | (1 << j)
            swapped = wa ^ ((bits[:, i] ^ bits[:, j]) * pair)
            # a map onto the set keeps the count of ones of the image coordinate
            for flip, count in ((0, ones[j]), (pair, n - ones[j])):
                if ones[i] != count:
                    continue
                img = swapped ^ flip
                pos = np.searchsorted(sw, img) % n
                if np.array_equal(sw[pos], img):
                    found.append((i, j, bool(flip), srt[pos]))
    return found


def _orbits(wa: np.ndarray, width: int) -> np.ndarray:
    """Orbit label of each word under the signed transpositions: the lowest
    index in its orbit (connected components by label propagation)."""
    perms = [perm for *_, perm in _signed_transpositions(wa, width)]
    label = np.arange(len(wa))
    changed = bool(perms)
    while changed:
        before = label
        for perm in perms:
            label = np.minimum(label, label[perm])
        label = label[label]
        changed = not np.array_equal(label, before)
    return label


def _reduced_system(
    words: Sequence[int], width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dmat, starts, orbit) of the system on orbits: dmat[r, c] is the distance
    from the r-th orbit representative to a word, columns grouped by orbit
    from starts[O]; orbit[i] is the orbit of words[i].

    Orbits and representatives are numbered in the elimination order, an
    order of the space alone: each coordinate oriented so that 1 is its
    majority value, highest oriented word first. A polarity flip keeps the
    order unless a coordinate is balanced, and the order leaves fewer
    nonzero multipliers than the ascending one."""
    wa = np.asarray(words, dtype=np.int64)
    n = len(wa)
    ones = ((wa[:, None] >> np.arange(width)) & 1).sum(axis=0)
    mask = sum(1 << b for b in range(width) if 2 * ones[b] < n)
    order = np.argsort(wa ^ mask)[::-1]
    ow = wa[order]
    label = _orbits(ow, width)
    reps = np.flatnonzero(label == np.arange(n))
    orbit = np.empty(n, dtype=np.int64)
    orbit[order] = np.searchsorted(reps, label)
    cols = np.argsort(orbit, kind="stable")
    starts = np.searchsorted(orbit[cols], np.arange(len(reps)))
    dmat = np.bitwise_count(ow[reps][:, None] ^ wa[cols][None, :])
    return dmat, starts, orbit


def _solve_mod_prime(dmat: np.ndarray, starts: np.ndarray, k: int, p: int) -> np.ndarray:
    """Solve the system on orbits R y = 1 over GF(p), where R sums
    inv(k-1)^dmat over each orbit's columns. Raises on zero pivot.

    Rows below the pivot take their updates unreduced; a row is reduced
    when it becomes the pivot row, and back-substitution reads only those."""
    n = dmat.shape[0]
    inv = pow(k - 1, p - 2, p)
    powtab = np.array(
        [pow(inv, j, p) for j in range(int(dmat.max()) + 1)], dtype=np.int64
    )
    a = np.empty((n, n + 1), dtype=np.int64)
    a[:, :n] = np.add.reduceat(powtab[dmat], starts, axis=1) % p
    a[:, n] = 1
    for col in range(n):
        c = a[col:, col] % p
        nz = np.flatnonzero(c)
        if nz.size == 0:
            raise _SingularModP(col)
        piv = int(nz[0])
        if piv:
            a[[col, col + piv]] = a[[col + piv, col]]
            c[[0, piv]] = c[[piv, 0]]
        row = a[col, col + 1 :] % p * pow(int(c[0]), p - 2, p) % p
        a[col, col + 1 :] = row
        nzr = np.flatnonzero(c[1:])
        if nzr.size:
            a[nzr + col + 1, col + 1 :] -= c[nzr + 1, None] * row
    x = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        x[i] = a[i, n] % p
        a[:i, n] -= a[:i, i] * x[i]
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
        # one butterfly per axis over exact Python ints: pairs (w, w | bit)
        # are v[:, 0] and v[:, 1] of the axis' reshape
        v = np.zeros(1 << width, dtype=object)
        idx = np.asarray(words, dtype=np.int64)
        v[idx] = [f.numerator * (den // f.denominator) for f in y]
        for axis in range(width):
            pairs = v.reshape(-1, 2, 1 << axis)
            a, b = pairs[:, 0], pairs[:, 1]
            pairs[:, 0], pairs[:, 1] = (k - 1) * a + b, a + (k - 1) * b
        target = den * (k - 1) ** width
        return bool((v[idx] == target).all())
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
    y, orbit = _solve_modular(words, space.width, k)
    sizes = np.bincount(orbit, minlength=len(y)).tolist()
    total = sum((s * f for s, f in zip(sizes, y)), Fraction(0))
    if total <= 0:
        raise CharacteristicError("non-positive normalisation sum")
    lam = 1 / total
    pi_orbit = [f * lam for f in y]
    pi = {w: pi_orbit[o] for w, o in zip(words, orbit.tolist())}
    for w, f in pi.items():
        if f < 0:
            raise CharacteristicError("negative pi component at word %d" % w)
    if not (0 < lam < 1):
        raise CharacteristicError("lambda %s outside (0,1)" % lam)
    return Characteristic(lam, pi)


def _solve_modular(
    words: Sequence[int], width: int, k: int
) -> tuple[list[Fraction], np.ndarray]:
    """(y, orbit) with y[orbit[i]] the value at words[i] of the solution of
    M y = 1: the residues of one more prime at a time on the system on orbits
    are CRT-combined into the residues modulo the product m of the primes so
    far, and reconstructed orbit by orbit, until a reconstruction, expanded
    to every word, verifies exactly on the full system."""
    dmat, starts, orbit = _reduced_system(words, width)
    combined = [0] * len(starts)
    m = 1
    singular_hits = 0
    for p in _PRIMES:
        try:
            res = _solve_mod_prime(dmat, starts, k, p)
        except _SingularModP:
            singular_hits += 1
            if singular_hits >= 3:
                raise CharacteristicError("system appears singular")
            continue
        inv = pow(m % p, p - 2, p)
        combined = [c + m * ((r - c) * inv % p) for c, r in zip(combined, res.tolist())]
        m *= p
        y: list[Fraction] = []
        for c in combined:
            f = _rational_reconstruct(c, m)
            if f is None:
                break
            y.append(f)
        else:
            if _verify_exact(words, width, k, [y[o] for o in orbit.tolist()]):
                return y, orbit
    raise CharacteristicError(
        "rational reconstruction failed with %d primes" % (len(_PRIMES) - singular_hits)
    )


# ---------------------------------------------------------------------------
# closed form for the 1-chain


def closed_form_1chain(k: int) -> Characteristic:
    """Exact characteristic of the all-positive 1-chain on k variables."""
    if k < 3:
        raise CharacteristicError("k must be >= 3")
    lam = lambda_1chain(k)
    scale = lam * Fraction(k - 1, k) ** k
    pi: dict[int, Fraction] = {}
    for w in range(1, 1 << k):
        d = w.bit_count()
        pi[w] = scale * (1 - Fraction(-1, k - 1) ** d)
    return Characteristic(lam, pi)


# ---------------------------------------------------------------------------
# f-values and the reference table

# lambda by (canonical type, clause width, k), for the whole process
_LAMBDA_CACHE: dict[tuple[str, int, int], Fraction] = {}


def lambda_for_zeta(zeta_str: str, chain: Optional[Chain] = None, k: int = 3) -> Fraction:
    """Characteristic value at width k of ``chain``, of type ``zeta_str``
    (by default the type's canonical 3-CNF chain), solved once per process.
    The type and the clause width fix the chain's solution space up to a
    permutation and sign flips of its coordinates, which keep lambda: the
    memo is keyed by the canonical type, the clause width and k."""
    key = canonical_zeta(zeta_str)
    memo = (key, 3 if chain is None else chain.k, k)
    if memo not in _LAMBDA_CACHE:
        chain = canonical_realization(key) if chain is None else chain
        _LAMBDA_CACHE[memo] = solve_characteristic(solution_space(chain), k).lam
    return _LAMBDA_CACHE[memo]


def f_raw(b: Fraction, eta: int, lam: Fraction) -> float:
    """log b / (log b + eta log(4/3) + log lambda), 53-bit arithmetic."""
    lb = math.log2(b.numerator) - math.log2(b.denominator)
    ll = math.log2(lam.numerator) - math.log2(lam.denominator)
    return lb / (lb + eta * math.log2(4 / 3) + ll)


F1 = f_raw(Fraction(3), 3, Fraction(3, 7))


def forced_termination(z: str, lam: Fraction) -> bool:
    """The doubled-branch-number rule: an open chain of type z and
    characteristic value lam is closed once its f-value at twice its branch
    number is at most F1, the 1-chain's value."""
    return f_raw(2 * branch_number(z), eta_of_zeta(z), lam) <= F1


@dataclass(frozen=True)
class ChainTypeRecord:
    type_id: int
    zeta: str
    r2: bool
    b: Fraction
    eta: int
    lam: Fraction
    f: float

    def tsv_row(self, exact: bool = True) -> str:
        lam = "%d/%d" % (self.lam.numerator, self.lam.denominator) if exact else "%.6f" % float(self.lam)
        b = "%d/%d" % (self.b.numerator, self.b.denominator)
        return "\t".join(
            [str(self.type_id), self.zeta, "r2" if self.r2 else "-", b, str(self.eta), lam, "%.6f" % self.f]
        )


TSV_HEADER = "type\tzeta\tr2\tb\teta\tlambda\tf"


def type_record(type_id: int, z: str, r2: bool, lam: Fraction) -> ChainTypeRecord:
    """The chain-type row of type z, forced (r2) or natural, with value lam."""
    b = branch_number(z, r2)
    eta = eta_of_zeta(z)
    return ChainTypeRecord(type_id, z, r2, b, eta, lam, f_raw(b, eta, lam))


class Table2Error(AssertionError):
    pass


def reproduce_table2() -> list[ChainTypeRecord]:
    """Solve the LP for all 38 reference types and check against the table.

    Each lambda comes from ``lambda_for_zeta``, so a process solves each type
    once. Raises Table2Error with an itemized diff on any mismatch.
    """
    records: list[ChainTypeRecord] = []
    problems: list[str] = []
    for type_id, z, r2, lam_str, f_prefix in REFERENCE_CHAIN_TYPES:
        lam = lambda_for_zeta(z)
        expected = Fraction(lam_str)
        if lam != expected:
            problems.append(
                "type %d (%s): computed lambda %s, expected %s" % (type_id, z, lam, expected)
            )
        rec = type_record(type_id, z, r2, lam)
        if not ("%.10f" % rec.f).startswith(f_prefix):
            problems.append(
                "type %d (%s): f=%.7f does not extend prefix %s" % (type_id, z, rec.f, f_prefix)
            )
        records.append(rec)
    best = max(records, key=lambda r: r.f)
    if best.type_id != 1:
        problems.append("argmax f is type %d, expected 1" % best.type_id)
    if problems:
        raise Table2Error("reference table mismatch:\n  " + "\n  ".join(problems))
    return records


def generate_chain_types() -> list[ChainTypeRecord]:
    """Breadth-first generation of chain types for the 3-SAT branching.

    From every prefix the natural termination is emitted; a prefix on which
    the doubled-branch-number rule fires is closed by the forced (r2)
    termination and not extended; otherwise it extends by n, p and t (t must
    be followed by termination or n). Emitted types are deduplicated up to
    prefix reversal. The rule fires on every prefix of five symbols that the
    generation reaches, so it ends.
    """
    records: list[ChainTypeRecord] = []
    emitted: set[tuple[str, bool]] = set()

    def emit(body: str, r2: bool) -> None:
        z = canonical_zeta(body + "*")
        if (z, r2) not in emitted:
            emitted.add((z, r2))
            records.append(type_record(len(records) + 1, z, r2, lambda_for_zeta(z)))

    queue: list[str] = [""]
    while queue:
        body = queue.pop(0)
        fires = False
        if body:
            z = canonical_zeta(body + "*")
            fires = forced_termination(z, lambda_for_zeta(z))
        if body.endswith("t"):
            # the composite two-negative node always produces some branches
            # whose next clause is independent, so the natural ending exists
            # alongside a forced one
            emit(body, False)
            if fires:
                emit(body, True)
                continue
        elif fires:
            # eager forced termination preempts the natural ending
            emit(body, True)
            continue
        else:
            emit(body, False)
        ext = ["n"] if body.endswith("t") else ["n", "p", "t"]
        for s in ext:
            queue.append(body + s)
    return records


def reference_diff(records: list[ChainTypeRecord]) -> list[str]:
    """Compare the dominant (worst-f) variant per type string with the
    reference rows; the reference tabulates one row per string."""
    gen: dict[str, bool] = {}
    for r in records:
        gen[r.zeta] = gen.get(r.zeta, False) or r.r2
    ref = {canonical_zeta(z): r2 for (_i, z, r2, _lam, _f) in REFERENCE_CHAIN_TYPES}
    out = []
    for z in sorted(set(ref) - set(gen)):
        out.append("reference type %s not generated" % z)
    for z in sorted(set(gen) - set(ref)):
        out.append("generated type %s%s not in reference" % (z, " r2" if gen[z] else ""))
    for z in sorted(set(gen) & set(ref)):
        if gen[z] != ref[z]:
            out.append(
                "type %s: generated %s, reference %s"
                % (z, "r2" if gen[z] else "natural", "r2" if ref[z] else "natural")
            )
    return out
