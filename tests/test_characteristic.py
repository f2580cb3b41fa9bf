import math
import random
from fractions import Fraction

import numpy as np
import pytest

from detksat import characteristic
from detksat.chains import (
    SolutionSpace,
    build_chain,
    canonical_realization,
    solution_space,
)
from detksat.characteristic import (
    CharacteristicError,
    F1,
    closed_form_1chain,
    f_raw,
    lambda_for_zeta,
    reproduce_table2,
    solve_characteristic,
)
from detksat.formula import clause
from detksat.table_data import REFERENCE_CHAIN_TYPES


def one_chain_space(k):
    return solution_space(build_chain([clause(tuple(range(1, k + 1)))], k))


def reference_characteristic(space, k):
    """(lambda, pi) by Gaussian elimination of M y = 1 over Fractions: an
    oracle independent of the modular solver, for small spaces only."""
    words = space.words
    n = len(words)
    x = Fraction(1, k - 1)
    rows = [[x ** (wi ^ wj).bit_count() for wj in words] + [Fraction(1)] for wi in words]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    y = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        y[i] = rows[i][n] - sum(rows[i][j] * y[j] for j in range(i + 1, n))
    lam = 1 / sum(y)
    return lam, {w: v * lam for w, v in zip(words, y)}


def y_per_word(words, width, k):
    """The modular solve's y, one entry per word."""
    y, orbit = characteristic._solve_modular(words, width, k)
    return [y[o] for o in orbit]


def agrees_with_reference(space, k):
    ch = solve_characteristic(space, k)
    return (ch.lam, ch.pi) == reference_characteristic(space, k)


class TestSolve:
    def test_1chain_k3(self):
        ch = solve_characteristic(one_chain_space(3), 3)
        assert ch.lam == Fraction(3, 7)

    def test_negative_2chain(self):
        assert lambda_for_zeta("n*") == Fraction(27, 110)

    def test_two_negative_2chain(self):
        assert lambda_for_zeta("t*") == Fraction(15, 46)

    def test_constraints_hold_exactly(self):
        for z in ("*", "n*", "p*", "t*", "nt*"):
            sp = solution_space(canonical_realization(z))
            ch = solve_characteristic(sp, 3)
            assert sum(ch.pi.values()) == 1
            assert 0 < ch.lam < 1
            x = Fraction(1, 2)
            for a_star in sp.words:
                total = sum(
                    p * x ** (a ^ a_star).bit_count() for a, p in ch.pi.items()
                )
                assert total == ch.lam

    def test_1chain_pi_depends_only_on_weight(self):
        ch = solve_characteristic(one_chain_space(3), 3)
        by_weight = {}
        for w, p in ch.pi.items():
            by_weight.setdefault(w.bit_count(), set()).add(p)
        assert all(len(s) == 1 for s in by_weight.values())

    def test_polarity_flip_invariance(self):
        base = build_chain([clause((1, 2, 3)), clause((-3, 4, 5))], 3)
        flipped = build_chain([clause((1, -2, 3)), clause((-3, 4, 5))], 3)
        a = solve_characteristic(solution_space(base), 3)
        b = solve_characteristic(solution_space(flipped), 3)
        assert a.lam == b.lam

    def test_guards(self):
        with pytest.raises(CharacteristicError):
            solve_characteristic(one_chain_space(3), 2)

    def test_modular_agrees_with_dense(self):
        for z in ("n*", "t*", "nn*"):
            assert agrees_with_reference(solution_space(canonical_realization(z)), 3)
        small = [
            sp
            for _, z, *_ in REFERENCE_CHAIN_TYPES
            if len(sp := solution_space(canonical_realization(z))) <= 45
        ]
        assert len(small) == 6
        for k in (3, 4, 5):
            for sp in small:
                assert agrees_with_reference(sp, k)


class TestModularPaths:
    """The paths of the modular solve on a space whose y the first prime
    alone reconstructs: CRT over several primes, a singular prime, a
    reconstruction that fails verification, and a negative pi."""

    SPACE = solution_space(canonical_realization("nt*"))  # denominators up to 135

    def test_one_small_prime_cannot_reconstruct(self, monkeypatch):
        for p in (211, 223):
            monkeypatch.setattr(characteristic, "_PRIMES", (p,))
            with pytest.raises(CharacteristicError, match="reconstruction failed"):
                solve_characteristic(self.SPACE, 3)

    def test_crt_of_two_small_primes(self, monkeypatch):
        # 211 * 223 = 47053 bounds the reconstruction by isqrt(47053 // 2) = 153
        monkeypatch.setattr(characteristic, "_PRIMES", (211, 223))
        assert agrees_with_reference(self.SPACE, 3)

    def test_crt_after_a_prime_too_small(self, monkeypatch):
        monkeypatch.setattr(characteristic, "_PRIMES", (10007,) + characteristic._PRIMES)
        assert agrees_with_reference(self.SPACE, 3)

    def _singular_for(self, monkeypatch, count):
        real = characteristic._solve_mod_prime
        bad = characteristic._PRIMES[:count]

        def solve(dmat, starts, k, p):
            if p in bad:
                raise characteristic._SingularModP(0)
            return real(dmat, starts, k, p)

        monkeypatch.setattr(characteristic, "_solve_mod_prime", solve)

    def test_singular_prime_skipped(self, monkeypatch):
        self._singular_for(monkeypatch, 2)
        assert agrees_with_reference(self.SPACE, 3)

    def test_three_singular_primes_raise(self, monkeypatch):
        self._singular_for(monkeypatch, 3)
        with pytest.raises(CharacteristicError, match="singular"):
            solve_characteristic(self.SPACE, 3)

    def test_unverified_reconstruction_rejected(self, monkeypatch):
        real = characteristic._verify_exact
        calls = []

        # the first prime's reconstruction is exact but rejected: the solve
        # folds in the next prime and verifies again
        def verify(words, width, k, y):
            calls.append(real(words, width, k, y))
            return len(calls) > 1 and calls[-1]

        monkeypatch.setattr(characteristic, "_verify_exact", verify)
        assert agrees_with_reference(self.SPACE, 3)
        assert calls == [True, True]

    def test_negative_pi_rejected(self):
        # M y = 1 has the solution y[12] = -2/27 on this 7-word space
        space = SolutionSpace((2, 4, 8, 12, 13, 14, 15), (1, 2, 3, 4))
        assert reference_characteristic(space, 3)[1][12] < 0
        with pytest.raises(CharacteristicError, match="negative pi"):
            solve_characteristic(space, 3)


def signed_transposition(w, i, j, flip):
    """The image of w under (i j), with both coordinates flipped if flip."""
    bi, bj = (w >> i) & 1, (w >> j) & 1
    w ^= (bi ^ bj) * ((1 << i) | (1 << j))
    return w ^ ((1 << i) | (1 << j)) if flip else w


class TestOrbits:
    """The system on orbits: its generators, its orbits, and the y it gives."""

    def test_generators_map_the_words_onto_themselves(self):
        for z in ("nt*", "nnnt*", "tnpt*", "npp*"):
            sp = solution_space(canonical_realization(z))
            wa = np.asarray(sp.words, dtype=np.int64)
            gens = characteristic._signed_transpositions(wa, sp.width)
            assert gens
            for i, j, flip, perm in gens:
                images = [signed_transposition(w, i, j, flip) for w in sp.words]
                assert sorted(images) == list(sp.words)
                assert images == wa[perm].tolist()

    def test_no_symmetry_gives_singleton_orbits(self):
        wa = np.array([0, 1, 3, 7, 8], dtype=np.int64)
        assert characteristic._signed_transpositions(wa, 4) == []
        assert characteristic._orbits(wa, 4).tolist() == [0, 1, 2, 3, 4]
        _, starts, orbit = characteristic._reduced_system(wa.tolist(), 4)
        assert len(starts) == 5 and sorted(orbit.tolist()) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_symmetric_word_sets_agree_with_reference(self, k):
        rng = random.Random(k)
        for _ in range(12):
            width = rng.randint(3, 6)
            i, j = sorted(rng.sample(range(width), 2))
            flip = rng.random() < 0.5
            base = rng.sample(range(1 << width), rng.randint(2, min(10, 1 << width)))
            words = sorted(set(base) | {signed_transposition(w, i, j, flip) for w in base})
            wa = np.asarray(words, dtype=np.int64)
            found = characteristic._signed_transpositions(wa, width)
            assert (i, j, flip) in [g[:3] for g in found]
            y, orbit = characteristic._solve_modular(words, width, k)
            lam, pi = reference_characteristic(SolutionSpace(tuple(words), tuple(range(width))), k)
            assert [y[o] for o in orbit] == [pi[w] / lam for w in words]

    def test_twelve_literal_clause(self):
        space = one_chain_space(12)
        assert len(space) == 4095
        _, starts, _ = characteristic._reduced_system(space.words, space.width)
        assert len(starts) == 12
        ch = solve_characteristic(space, 12)
        cf = closed_form_1chain(12)
        assert ch.lam == cf.lam
        assert ch.pi == cf.pi


class TestVerifyExact:
    """Both paths of the exact check, the butterfly (width <= 16) and the
    pairwise sum, accept the solution and reject it with one entry changed."""

    SPACE = solution_space(canonical_realization("nt*"))

    @pytest.mark.parametrize("k", [3, 5])
    def test_one_changed_entry_rejected(self, k):
        words = self.SPACE.words
        y = y_per_word(words, self.SPACE.width, k)
        for width in (self.SPACE.width, 17):  # 17 takes the pairwise path
            assert characteristic._verify_exact(words, width, k, y)
            for pos in (0, len(y) // 2, len(y) - 1):
                changed = list(y)
                changed[pos] += Fraction(1, 7)
                assert not characteristic._verify_exact(words, width, k, changed)


class TestArithmeticBound:
    """_solve_mod_prime lets a row take its updates unreduced until it
    becomes the pivot row; that is exact only while these bounds hold."""

    FORMER_PRIMES = (  # the 31-bit primes the solve used before
        2147483647,
        2147483629,
        2147483587,
        2147483579,
        2147483563,
        2147483549,
        2147483543,
        2147483497,
    )

    def test_distinct_primes_below_2_25(self):
        primes = characteristic._PRIMES
        assert len(set(primes)) == len(primes)
        for p in primes:
            assert p < 2**25
            assert all(p % d for d in range(2, math.isqrt(p) + 1))

    def test_lazy_updates_stay_inside_int64(self):
        # an entry starts in [0, p) and takes at most SPACE_LIMIT updates,
        # each a product of two residues
        p = max(characteristic._PRIMES)
        assert characteristic.SPACE_LIMIT * p**2 + p < 2**63

    def test_modulus_no_smaller_than_before(self):
        assert math.prod(characteristic._PRIMES) >= math.prod(self.FORMER_PRIMES)


class TestResiduesAndOrder:
    """Type 14 (306 words): enough pivots that an entry passes 2**50 before
    it is reduced."""

    SPACE = solution_space(canonical_realization("npp*"))

    @pytest.mark.parametrize("k", [3, 5])
    def test_residues_solve_the_system(self, k):
        words = self.SPACE.words
        assert len(words) >= 300
        p = max(characteristic._PRIMES)
        dmat, starts, orbit = characteristic._reduced_system(words, self.SPACE.width)
        y = characteristic._solve_mod_prime(dmat, starts, k, p)[orbit]
        assert all(0 <= int(v) < p for v in y)
        inv = pow(k - 1, p - 2, p)
        for wi in words:
            acc = sum(pow(inv, (wi ^ wj).bit_count(), p) * int(v) for wj, v in zip(words, y))
            assert acc % p == 1

    @pytest.mark.parametrize("k", [3, 5])
    def test_same_y_for_any_word_order_and_polarity(self, k):
        words, width = self.SPACE.words, self.SPACE.width
        y = dict(zip(words, y_per_word(words, width, k)))
        shuffled = list(words)
        random.Random(k).shuffle(shuffled)
        assert dict(zip(shuffled, y_per_word(shuffled, width, k))) == y
        mask = 0b1_0110_1101  # flips 6 of the 9 coordinates
        flipped = [w ^ mask for w in words]
        y_flipped = y_per_word(flipped, width, k)
        assert {w ^ mask: f for w, f in zip(flipped, y_flipped)} == y


class TestClosedForm:
    def test_k3(self):
        ch = closed_form_1chain(3)
        assert ch.lam == Fraction(3, 7)
        for w, p in ch.pi.items():
            if w.bit_count() == 1:
                assert p == Fraction(4, 21)
        assert ch.pi[0b111] == Fraction(1, 7)

    def test_k4(self):
        assert closed_form_1chain(4).lam == Fraction(1, 5)

    def test_matches_lp_exactly(self):
        for k in (3, 4, 5, 6):
            cf = closed_form_1chain(k)
            lp = solve_characteristic(one_chain_space(k), k)
            assert cf.lam == lp.lam
            assert cf.pi == lp.pi


class TestFValues:
    def test_f1(self):
        assert ("%.7f" % F1).startswith("0.98586")

    def test_type3(self):
        f = f_raw(Fraction(6), 5, Fraction(81, 331))
        assert ("%.6f" % f).startswith("0.983")

    def test_type20(self):
        f = f_raw(Fraction(486), 11, Fraction(243, 5264))
        assert ("%.7f" % f).startswith("0.98583")


class TestTable:
    def test_reproduce_all_38(self):
        records = reproduce_table2()
        assert len(records) == 38
        by_zeta = {r.zeta: r for r in records}
        assert by_zeta["tnt*"].lam == Fraction(25, 176)
        assert by_zeta["tnnt*"].lam == Fraction(45, 553)
        assert max(records, key=lambda r: r.f).type_id == 1
