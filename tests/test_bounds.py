import math

import pytest

from detksat.bounds import (
    balance_check,
    c3,
    ck_recurrence,
    degeneration_check,
    lambda_1chain,
    nu1_3sat,
    round_up,
)


class TestC3:
    def test_rounded_value(self):
        assert round_up(c3()) == 1.32793

    def test_exponent(self):
        assert abs(math.log2(4 / 3) / math.log2(64 / 21) - 0.258158) < 1e-6

    def test_balance_consistency(self):
        # the base satisfies both defining equations simultaneously
        rep = balance_check(3)
        assert rep.ok and rep.rel_err <= 1e-10
        nu = nu1_3sat()
        assert abs(math.log2(c3()) - nu * math.log2(3)) < 1e-12

    def test_phi_default_is_c3(self):
        from detksat.branching3 import PhiConfig

        assert PhiConfig().c == c3() == 3.0 ** (math.log2(4 / 3) / math.log2(64 / 21))


class TestRecurrence:
    def test_table_values(self):
        rows = {r.k: r for r in ck_recurrence(6)}
        assert round_up(rows[3].ck) == 1.32793
        assert round_up(rows[4].ck) == 1.49857
        assert round_up(rows[5].ck) == 1.59946
        assert round_up(rows[6].ck) == 1.66646

    def test_nu4(self):
        rows = {r.k: r for r in ck_recurrence(4)}
        assert abs(rows[4].nu - 0.0768273) < 1e-6

    def test_invariants(self):
        for r in ck_recurrence(8):
            assert 1 < r.ck < 2
            assert 0 < r.nu < 1 / r.k

    def test_guard(self):
        with pytest.raises(ValueError):
            ck_recurrence(13)


class TestBalance:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_balance(self, k):
        rep = balance_check(k)
        assert rep.ok, rep
        assert rep.rel_err <= 1e-10

    def test_lambda_values(self):
        assert lambda_1chain(3).numerator == 3 and lambda_1chain(3).denominator == 7
        assert lambda_1chain(4).numerator == 1 and lambda_1chain(4).denominator == 5


class TestDegeneration:
    def test_bases(self):
        rep = degeneration_check()
        assert rep.positive_base >= 1.328
        assert rep.two_negative_base >= 1.328
        assert rep.positive_base > rep.c3_value
        assert rep.two_negative_base > rep.c3_value
