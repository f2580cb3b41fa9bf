import dataclasses
import hashlib
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
    ell_cover_spaces,
    ell_for,
    pack_words,
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


def recount_greedy(width, radius, target, candidates, budget):
    """Greedy ball cover recounting every candidate's coverage with one XOR
    correlation per pick: the reference for ``_greedy_cover``'s kept counts.
    Same picks as ``brute_greedy``, at widths it cannot reach."""
    in_ball = covering._popcounts(width) <= radius
    ball = np.flatnonzero(in_ball)
    ball_hat = covering._wht(in_ball.astype(np.float64))
    uncovered = target.copy()
    centers = []
    while uncovered.any() and (budget is None or len(centers) < budget):
        counts = covering._xor_correlate(uncovered, ball_hat)
        counts[~candidates] = -1
        c = int(np.argmax(counts))
        if counts[c] <= 0:
            break
        centers.append(c)
        uncovered[ball ^ c] = False
    return centers, uncovered


def count_transforms(monkeypatch):
    """Patch ``covering._wht`` to record the length of every transform."""
    calls = []
    wht = covering._wht

    def counting_wht(v):
        calls.append(v.shape[0])
        return wht(v)

    monkeypatch.setattr(covering, "_wht", counting_wht)
    return calls


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

    # radius 1 at width 12: every pick newly covers at most 13 words, so
    # only the update runs; radius 5 at width 9: the first pick covers the
    # 382-word ball, above the (9 + 1) * 2^10 cost of a recount
    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(9, 14),
        radius=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        target_p=st.sampled_from([0.05, 0.5, 1.0]),
        candidate_p=st.sampled_from([0.1, 0.6, 1.0]),
        budget=st.none() | st.integers(0, 24),
    )
    @example(width=12, radius=1, seed=3, target_p=1.0, candidate_p=1.0, budget=None)
    @example(width=9, radius=5, seed=4, target_p=1.0, candidate_p=0.6, budget=None)
    def test_matches_recount_greedy(
        self, width, radius, seed, target_p, candidate_p, budget
    ):
        n = 1 << width
        rng = np.random.default_rng(seed)
        target = rng.random(n) < target_p
        candidates = rng.random(n) < candidate_p
        centers, uncovered = covering._greedy_cover(
            width, radius, target, candidates, budget
        )
        expect_centers, expect_uncovered = recount_greedy(
            width, radius, target, candidates, budget
        )
        assert centers == expect_centers
        assert np.array_equal(uncovered, expect_uncovered)

    def test_updates_replace_recounts(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        fam = cover_cube.__wrapped__(12, 1)
        # the ball's transform and one correlation (two), against one
        # correlation per center before
        assert calls == [1 << 12] * 3
        assert len(fam.entries[1]) == 512

    def test_large_pick_recounts(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        target = np.ones(1 << 9, dtype=bool)
        centers, _ = covering._greedy_cover(9, 5, target, target)
        assert 3 < len(calls) <= 1 + 2 * len(centers)
        assert centers == recount_greedy(9, 5, target, target, None)[0]

    def test_radius0_runs_no_transform(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        target = np.ones(256, dtype=bool)
        centers, uncovered = covering._greedy_cover(8, 0, target, target, 5)
        assert calls == []
        assert centers == [0, 1, 2, 3, 4] and int(uncovered.sum()) == 251
        covering._greedy_cover(8, 1, target, target, 1)
        assert calls  # the counter sees the transforms of radius 1


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


@st.composite
def _families(draw):
    """A small multi-radius family; entries may be empty."""
    width = draw(st.integers(1, 3))
    radii = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    words = st.integers(0, (1 << width) - 1)
    return CodeFamily(
        width, {r: tuple(draw(st.lists(words, max_size=3, unique=True))) for r in radii}
    )


def covered_at(fam, r):
    """Words within radius r of a center of the radius-r entry."""
    return [
        w for w in range(1 << fam.width) if any(hamming(w, c) <= r for c in fam.entries[r])
    ]


class TestProductCode:
    @settings(max_examples=150, deadline=None)
    @given(a=_families(), b=_families())
    @example(a=CodeFamily(2, {0: (1, 2), 1: ()}), b=CodeFamily(1, {0: (0, 1), 2: (0,)}))
    def test_radius_summing_product(self, a, b):
        prod = product_code([a, b])
        assert prod.width == a.width + b.width
        combos = [(ra, rb) for ra in a.radii() for rb in b.radii()]
        assert set(prod.radii()) == {
            ra + rb for ra, rb in combos if a.entries[ra] and b.entries[rb]
        }
        for r in prod.radii():
            assert len(set(prod.entries[r])) == len(prod.entries[r])
        for ra, rb in combos:
            for x in covered_at(a, ra):
                for y in covered_at(b, rb):
                    word = x | (y << a.width)
                    assert any(hamming(word, c) <= ra + rb for c in prod.entries[ra + rb])

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


@pytest.fixture
def block_width(monkeypatch):
    """Set ``covering.BLOCK_WIDTH`` for one test; the memos are emptied before
    and after, so no code built at the test's width outlives it."""

    def clear():
        cover_cube.cache_clear()
        covering._ell_cover_shapes.cache_clear()

    clear()
    yield lambda width: monkeypatch.setattr(covering, "BLOCK_WIDTH", width)
    clear()


class TestBlocks:
    # a "*" space is 3 bits wide, so runs of two; an "n*" space is 5 bits
    # wide, so runs of one
    @pytest.mark.parametrize(
        "zeta,nu,runs", [("*", 3, [2, 1]), ("*", 4, [2, 2]), ("n*", 2, [1, 1]), ("n*", 3, [1, 1, 1])]
    )
    def test_split_power_covers(self, block_width, zeta, nu, runs):
        block_width(7)
        sp = solution_space(canonical_realization(zeta))
        spaces = (sp,) * nu
        fam = ell_cover_spaces(spaces, 3, lambda_for_zeta(zeta))
        assert fam.description == "ell-family nu=%d (runs %s)" % (nu, runs)
        rep = verify_coverage(fam, StructuredSpace((PowerFactor(spaces),)))
        assert rep.ok and not rep.sampled
        assert rep.checked == len(sp.words) ** nu

    def test_runs_are_memoized_families(self, block_width):
        block_width(7)
        sp = solution_space(canonical_realization("*"))
        lam = Fraction(3, 7)
        fam = ell_cover_spaces((sp,) * 5, 3, lam)  # runs [2, 2, 1]
        misses = covering._ell_cover_shapes.cache_info().misses
        pair, single = ell_cover_spaces((sp,) * 2, 3, lam), ell_cover_spaces((sp,), 3, lam)
        assert covering._ell_cover_shapes.cache_info().misses == misses
        assert fam.entries == product_code([pair, pair, single]).entries

    def test_split_cube_covers(self, block_width):
        block_width(4)
        fam = cover_cube(10, 3)
        assert fam.description == "cube width 10 (blocks [4, 3, 3])"
        rep = verify_coverage(fam, StructuredSpace((CubeFactor(10),)))
        assert rep.ok and not rep.sampled

    @pytest.mark.parametrize(
        "count,cap,want",
        [(26, 20, [13, 13]), (41, 20, [14, 14, 13]), (7, 3, [3, 2, 2]), (5, 5, [5]), (3, 1, [1, 1, 1])],
    )
    def test_balanced(self, count, cap, want):
        assert covering._balanced(count, cap) == want


class TestSizeGuard:
    def test_refused_before_packing(self, monkeypatch):
        def no_pack(parts):
            raise AssertionError("packed")

        monkeypatch.setattr(covering, "pack_words", no_pack)
        monkeypatch.setattr(covering, "CODE_SIZE_LIMIT", 11)
        a = CodeFamily(2, {0: (0, 1, 2), 1: (3,)})
        b = CodeFamily(1, {0: (0,), 1: (1, 0)})
        # 4 * 3 = 12 centers: one per choice of a center of each family
        with pytest.raises(CoverError, match="code size guard: 12 centers > 11"):
            product_code([a, b])

    def test_limit_admits_its_size(self, monkeypatch):
        monkeypatch.setattr(covering, "CODE_SIZE_LIMIT", 12)
        a = CodeFamily(2, {0: (0, 1, 2), 1: (3,)})
        b = CodeFamily(1, {0: (0,), 1: (1, 0)})
        assert product_code([a, b]).size() == 12


class TestEllFamily:
    def test_ell_formula(self):
        assert ell_for(2, 3, Fraction(3, 7)) == 4

    def test_1chain_power2(self):
        sp = solution_space(canonical_realization("*"))
        fam = ell_cover_spaces((sp, sp), 3, Fraction(3, 7))
        words = [a | (b << 3) for a in sp.words for b in sp.words]
        assert len(words) == 49
        assert covers(fam, words)

    def test_single_ball_degenerate(self):
        sp = solution_space(canonical_realization("*"))
        fam = ell_cover_spaces((sp,), 3, Fraction(3, 7))
        assert covers(fam, sp.words)

    def test_radius0_no_worse_than_space(self):
        sp = solution_space(canonical_realization("*"))
        fam = ell_cover_spaces((sp,), 3, Fraction(3, 7))
        assert len(fam.entries.get(0, ())) <= len(sp.words)

    @pytest.mark.parametrize("k", [2, 1, 0])
    def test_k_below_3_rejected(self, k):
        sp = solution_space(canonical_realization("*"))
        with pytest.raises(CoverError, match="k must be >= 3"):
            ell_cover_spaces((sp,), k, Fraction(3, 7))

    def test_centers_inside_space(self):
        sp = solution_space(canonical_realization("t*"))
        fam = ell_cover_spaces((sp,), 3, Fraction(15, 46))
        member = set(sp.words)
        for r in fam.radii():
            assert set(fam.entries[r]) <= member


class TestGeneralized:
    def test_cube_only_reduces_to_single_radius(self):
        space = StructuredSpace((CubeFactor(6),))
        fam = build_generalized_code(space, [], 3)
        assert fam.radii() == [2]
        rep = verify_coverage(fam, space)
        assert rep.ok and not rep.sampled

    def test_power_only_equals_ell_family(self):
        sp = solution_space(canonical_realization("*"))
        space = StructuredSpace((PowerFactor((sp,)),))
        fam = build_generalized_code(space, [Fraction(3, 7)], 3)
        direct = ell_cover_spaces((sp,), 3, Fraction(3, 7))
        assert fam.entries == direct.entries

    def test_cube_plus_chain(self):
        sp = solution_space(canonical_realization("*"))
        space = StructuredSpace((CubeFactor(4), PowerFactor((sp,))))
        fam = build_generalized_code(space, [Fraction(3, 7)], 3)
        assert space.count_words() == 112
        rep = verify_coverage(fam, space)
        assert rep.ok and rep.checked == 112
        # radii run from ceil(4/3) upward
        assert min(fam.radii()) == 2

    def test_determinism(self, monkeypatch):
        sp = solution_space(canonical_realization("n*"))
        space = StructuredSpace((CubeFactor(5), PowerFactor((sp,))))
        lam = lambda_for_zeta("n*")
        a = build_generalized_code(space, [lam], 3)
        b = fresh(monkeypatch, "build_generalized_code", space, [lam], 3)
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


class TestPackWords:
    def test_matches_nested_loops(self):
        parts = [(2, (0, 3)), (0, (0,)), (3, (1, 4, 7)), (1, range(2))]
        want = [
            a | (c << 2) | (d << 5)
            for a in (0, 3)
            for c in (1, 4, 7)
            for d in (0, 1)
        ]
        assert list(pack_words(parts)) == want

    def test_empty_product_is_one_word(self):
        assert list(pack_words([])) == [0]

    def test_space_words_follow_factor_parts(self):
        sp = solution_space(canonical_realization("*"))
        space = StructuredSpace((CubeFactor(2), PowerFactor((sp, sp))))
        assert space.factor_parts() == [(2, range(4)), (3, sp.words), (3, sp.words)]
        assert list(space.enumerate_words()) == list(pack_words(space.factor_parts()))
        assert len(set(space.enumerate_words())) == space.count_words()


class TestVerifier:
    def test_sampled_wide_cube(self):
        # sampling draws cube words by index, never listing all 2^30 of them
        fam = CodeFamily(30, {30: (0,)})
        rep = verify_coverage(fam, StructuredSpace((CubeFactor(30),)), samples=50)
        assert rep.ok and rep.sampled and rep.checked == 50

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


def one_clause_space(k, falsifying):
    """The solution space of one k-clause: every k-bit word but the one that
    falsifies it."""
    return SolutionSpace(
        tuple(w for w in range(1 << k) if w != falsifying), tuple(range(1, k + 1))
    )


# Every covering code the benchmark's workloads build, smoke instances
# included: cubes as (width, radius), and ell-families of 1-chains as (k,
# lambda, the falsifying word of each chain's clause). Their entries are
# pinned by one sha256, so a change to code construction that moves a
# benchmark code fails here.
BENCH_CUBES = ((2, 1), (4, 1), (6, 2), (7, 2), (9, 3), (18, 6))
BENCH_ELL_FAMILIES = (
    (3, Fraction(3, 7), ((5,), (3,), (2,), (1,))),
    (
        4,
        Fraction(1, 5),
        ((13, 15, 13), (8, 9, 11), (7, 12), (4, 11, 7), (4, 7, 6), (3, 11, 10), (0, 7, 7)),
    ),
    (5, Fraction(125, 1301), ((26, 6), (20, 18), (19, 21), (14, 30))),
)
BENCH_CODES_SHA256 = "6f60734cea7bf74f221147b317d5c81b7d1613c23ded41666c05e1f426f4925a"


class TestBenchCodes:
    def test_entries_pinned(self):
        fams = [cover_cube(w, r) for w, r in BENCH_CUBES]
        for k, lam, powers in BENCH_ELL_FAMILIES:
            for falsifying in powers:
                spaces = tuple(one_clause_space(k, x) for x in falsifying)
                fams.append(ell_cover_spaces(spaces, k, lam))
        text = repr([sorted(fam.entries.items()) for fam in fams])
        assert hashlib.sha256(text.encode()).hexdigest() == BENCH_CODES_SHA256
