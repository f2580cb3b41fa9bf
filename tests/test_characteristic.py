from fractions import Fraction

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
    """The paths that the first 31-bit prime alone never reaches on the
    reference types: CRT over several primes, a singular prime, a
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

        def solve(dmat, k, p):
            if p in bad:
                raise characteristic._SingularModP(0)
            return real(dmat, k, p)

        monkeypatch.setattr(characteristic, "_solve_mod_prime", solve)

    def test_singular_prime_skipped(self, monkeypatch):
        self._singular_for(monkeypatch, 2)
        assert agrees_with_reference(self.SPACE, 3)

    def test_three_singular_primes_raise(self, monkeypatch):
        self._singular_for(monkeypatch, 3)
        with pytest.raises(CharacteristicError, match="singular"):
            solve_characteristic(self.SPACE, 3)

    def test_unverified_reconstruction_rejected(self, monkeypatch):
        real = characteristic._combine
        calls = []

        def combine(residues, primes, n):
            y = real(residues, primes, n)
            calls.append(len(primes))
            return [y[0] + 1] + y[1:] if len(primes) == 1 else y

        monkeypatch.setattr(characteristic, "_combine", combine)
        assert agrees_with_reference(self.SPACE, 3)
        assert calls == [1, 2]

    def test_negative_pi_rejected(self):
        # M y = 1 has the solution y[12] = -2/27 on this 7-word space
        space = SolutionSpace((2, 4, 8, 12, 13, 14, 15), (1, 2, 3, 4))
        assert reference_characteristic(space, 3)[1][12] < 0
        with pytest.raises(CharacteristicError, match="negative pi"):
            solve_characteristic(space, 3)


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
