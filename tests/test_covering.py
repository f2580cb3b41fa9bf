import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detksat import covering
from detksat.chains import SolutionSpace, canonical_realization, solution_space
from detksat.characteristic import lambda_for_zeta
from detksat.covering import (
    CodeFamily,
    CoverError,
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
    cover_cube,
    ell_cover_power,
    ell_cover_spaces,
    ell_for,
    product_code,
    verify_coverage,
)
from detksat.formula import hamming


def covers(family, words):
    for w in words:
        if not any(
            hamming(w, c) <= r for r in family.radii() for c in family.entries[r]
        ):
            return False
    return True


def fresh(monkeypatch, name, *args):
    """Call ``covering.<name>`` with every covering code built afresh."""
    with monkeypatch.context() as m:
        m.setattr(covering, "cover_cube", covering.cover_cube.__wrapped__)
        m.setattr(covering, "_ell_cover_shapes", covering._ell_cover_shapes.__wrapped__)
        return getattr(covering, name)(*args)


def direct_wht(v):
    """The O(n^2) transform: out[y] = sum over x of (-1)^popcount(x & y) v[x]."""
    n = len(v)
    x = np.arange(n)
    parity = (np.bitwise_count(x[:, None] & x[None, :]) & 1).astype(np.float64)
    return (1 - 2 * parity) @ v


def brute_greedy(width, radius, target, candidates, budget):
    """Greedy ball cover counting each ball by enumeration: the reference for
    ``_greedy_cover``. The most uncovered words wins, ties to the smallest
    center; stops on the budget or when no candidate covers a new word."""
    n = 1 << width
    uncovered = [bool(t) for t in target]
    centers = []
    while any(uncovered) and (budget is None or len(centers) < budget):
        best, best_count = None, 0
        for c in range(n):
            if not candidates[c]:
                continue
            count = sum(
                1 for x in range(n) if uncovered[x] and hamming(x, c) <= radius
            )
            if count > best_count:
                best, best_count = c, count
        if best is None:
            break
        centers.append(best)
        for x in range(n):
            if hamming(x, best) <= radius:
                uncovered[x] = False
    return centers, uncovered


class TestWalshHadamard:
    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1, 2, 1000, 2**20]),
    )
    @example(width=0, seed=0, scale=1)
    def test_matches_direct_transform(self, width, seed, scale):
        n = 1 << width
        v = np.random.default_rng(seed).integers(-scale, scale + 1, n).astype(np.float64)
        expect = direct_wht(v)
        assert np.array_equal(covering._wht(v), expect)


class TestGreedyCover:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(0, 8),
        radius=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
        target_p=st.sampled_from([0.1, 0.5, 1.0]),
        candidate_p=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
        budget=st.none() | st.integers(0, 5),
    )
    @example(width=8, radius=2, seed=1, target_p=1.0, candidate_p=1.0, budget=None)
    def test_matches_brute_force_greedy(
        self, width, radius, seed, target_p, candidate_p, budget
    ):
        n = 1 << width
        rng = np.random.default_rng(seed)
        target = rng.random(n) < target_p
        candidates = rng.random(n) < candidate_p
        centers, uncovered = covering._greedy_cover(
            width, radius, target, candidates, budget
        )
        expect_centers, expect_uncovered = brute_greedy(
            width, radius, target, candidates, budget
        )
        assert centers == expect_centers
        assert uncovered.tolist() == expect_uncovered


class TestCoverCube:
    def test_width4_radius2(self):
        fam = cover_cube(4, 2)
        assert covers(fam, range(16))
        # the two-word family {0000, 1111} also covers; check the verifier
        hand = CodeFamily(4, {2: (0b0000, 0b1111)})
        assert covers(hand, range(16))

    def test_width1_radius0(self):
        fam = cover_cube(1, 0)
        assert fam.entries[0] == (0, 1)

    def test_width10_radius3(self):
        fam = cover_cube(10, 3)
        assert covers(fam, range(1 << 10))
        ball = sum(math.comb(10, i) for i in range(4))
        assert ball == 176
        bound = (10 * math.log(2) + 1) * (1 << 10) / ball
        assert len(fam.entries[3]) <= bound

    def test_degenerate_radius(self):
        fam = cover_cube(3, 5)
        assert fam.entries[5] == (0,)

    def test_blockwise_large_width(self):
        fam = cover_cube(26, 8)
        assert fam.radii() == [8]
        space = StructuredSpace((CubeFactor(26),))
        rep = verify_coverage(fam, space, samples=20000)
        assert rep.sampled and rep.ok

    def test_determinism(self, monkeypatch):
        a = cover_cube(9, 2)
        b = fresh(monkeypatch, "cover_cube", 9, 2)
        assert a is not b
        assert a.entries == b.entries


class TestProductCode:
    def test_example(self):
        c1 = CodeFamily(1, {1: (0,)})
        c2 = CodeFamily(2, {1: (0b00, 0b11)})
        prod = product_code([c1, c2])
        assert prod.radii() == [2]
        assert set(prod.entries[2]) == {0b000, 0b110}
        assert covers(prod, range(8))

    def test_identity(self):
        c = CodeFamily(3, {1: (0, 5)})
        prod = product_code([c])
        assert prod.entries == c.entries

    def test_radius0_product(self):
        c1 = CodeFamily(1, {0: (0, 1)})
        c2 = CodeFamily(1, {0: (0, 1)})
        prod = product_code([c1, c2])
        assert prod.radii() == [0]
        assert set(prod.entries[0]) == {0, 1, 2, 3}

    def test_multi_radius_rejected(self):
        with pytest.raises(CoverError):
            product_code([CodeFamily(1, {0: (0,), 1: (0,)})])


class TestEllFamily:
    def test_ell_formula(self):
        assert ell_for(2, 3, Fraction(3, 7)) == 4

    def test_1chain_power2(self):
        sp = solution_space(canonical_realization("*"))
        fam = ell_cover_power(sp, 2, 3, Fraction(3, 7))
        words = [a | (b << 3) for a in sp.words for b in sp.words]
        assert len(words) == 49
        assert covers(fam, words)

    def test_single_ball_degenerate(self):
        sp = solution_space(canonical_realization("*"))
        fam = ell_cover_power(sp, 1, 3, Fraction(3, 7))
        assert covers(fam, sp.words)

    def test_radius0_no_worse_than_space(self):
        sp = solution_space(canonical_realization("*"))
        fam = ell_cover_spaces((sp,), 3, Fraction(3, 7))
        assert len(fam.entries.get(0, ())) <= len(sp.words)

    def test_centers_inside_space(self):
        sp = solution_space(canonical_realization("t*"))
        fam = ell_cover_power(sp, 1, 3, Fraction(15, 46))
        member = set(sp.words)
        for r in fam.radii():
            assert set(fam.entries[r]) <= member


class TestGeneralized:
    def test_cube_only_reduces_to_single_radius(self):
        space = StructuredSpace((CubeFactor(6),))
        fam = build_generalized_code(space, Fraction(1, 3), [], 3)
        assert fam.radii() == [2]
        rep = verify_coverage(fam, space)
        assert rep.ok and not rep.sampled

    def test_power_only_equals_ell_family(self):
        sp = solution_space(canonical_realization("*"))
        space = StructuredSpace((PowerFactor((sp,)),))
        fam = build_generalized_code(space, Fraction(1, 3), [Fraction(3, 7)], 3)
        direct = ell_cover_spaces((sp,), 3, Fraction(3, 7))
        assert fam.entries == direct.entries

    def test_cube_plus_chain(self):
        sp = solution_space(canonical_realization("*"))
        space = StructuredSpace((CubeFactor(4), PowerFactor((sp,))))
        fam = build_generalized_code(space, Fraction(1, 3), [Fraction(3, 7)], 3)
        assert space.count_words() == 112
        rep = verify_coverage(fam, space)
        assert rep.ok and rep.checked == 112
        # radii run from ceil(rho*4) upward
        assert min(fam.radii()) == 2

    def test_rho_range_enforced(self):
        space = StructuredSpace((CubeFactor(4),))
        with pytest.raises(CoverError):
            build_generalized_code(space, Fraction(1, 2), [], 3)

    def test_determinism(self, monkeypatch):
        sp = solution_space(canonical_realization("n*"))
        space = StructuredSpace((CubeFactor(5), PowerFactor((sp,))))
        lam = lambda_for_zeta("n*")
        a = build_generalized_code(space, Fraction(1, 3), [lam], 3)
        b = fresh(monkeypatch, "build_generalized_code", space, Fraction(1, 3), [lam], 3)
        assert a.entries == b.entries


class TestMemo:
    def test_cube_hit_equals_fresh_build(self, monkeypatch):
        for width, radius in ((9, 2), (12, 3), (26, 8)):
            cached = cover_cube(width, radius)
            assert cover_cube(width, radius) is cached
            assert fresh(monkeypatch, "cover_cube", width, radius) == cached

    def test_equal_blocks_built_once(self):
        before = cover_cube.cache_info()
        fam = cover_cube.__wrapped__(26, 8)
        after = cover_cube.cache_info()
        assert fam.description == "cube width 26 (blocks [13, 13])"
        # two requests for the (13, 4) block, at most one of them a build
        assert after.hits + after.misses == before.hits + before.misses + 2
        assert after.hits >= before.hits + 1

    def test_ell_hit_equals_fresh_build(self, monkeypatch):
        sp = solution_space(canonical_realization("n*"))
        lam = lambda_for_zeta("n*")
        cached = ell_cover_spaces((sp, sp), 3, lam)
        assert ell_cover_spaces((sp, sp), 3, lam) is cached
        assert fresh(monkeypatch, "ell_cover_spaces", (sp, sp), 3, lam) == cached

    def test_var_order_does_not_split_the_memo(self):
        sp = solution_space(canonical_realization("*"))
        moved = SolutionSpace(sp.words, tuple(v + 10 for v in sp.var_order))
        lam = Fraction(3, 7)
        assert ell_cover_spaces((sp,), 3, lam) is ell_cover_spaces((moved,), 3, lam)
        assert ell_cover_spaces((sp, moved), 3, lam) is ell_cover_spaces((moved, sp), 3, lam)

    def test_different_shapes_do_not_share(self, monkeypatch):
        sp = solution_space(canonical_realization("*"))
        lam = Fraction(3, 7)
        base = ell_cover_spaces((sp,), 3, lam)
        variants = [
            ((SolutionSpace(sp.words[1:], sp.var_order),), 3, lam),  # words
            ((SolutionSpace(sp.words, sp.var_order + (9,)),), 3, lam),  # width
            ((sp, sp), 3, lam),  # number of spaces
            ((sp,), 4, lam),  # k
            ((sp,), 3, Fraction(2, 5)),  # lambda
        ]
        for args in variants:
            fam = ell_cover_spaces(*args)
            assert fam is not base
            assert fam == fresh(monkeypatch, "ell_cover_spaces", *args)
        assert cover_cube(9, 2) is not cover_cube(9, 3)
        assert cover_cube(9, 2) is not cover_cube(10, 2)

    def test_families_are_read_only(self):
        fam = cover_cube(9, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.description = "changed"
        with pytest.raises(TypeError):
            fam.entries[2] = ()
        assert cover_cube(9, 2).description == "cube width 9"


class TestVerifier:
    def test_detects_gap(self):
        fam = CodeFamily(3, {0: (0,)})
        space = StructuredSpace((CubeFactor(3),))
        rep = verify_coverage(fam, space)
        assert not rep.ok
        assert rep.uncovered_example is not None

    def test_dump_format(self):
        fam = CodeFamily(3, {1: (0b101,)}, "demo")
        text = fam.dump()
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "r 1 101"
