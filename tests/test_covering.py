import contextlib
import dataclasses
import hashlib
import math
from fractions import Fraction
from itertools import accumulate, product as iproduct

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
from detksat.branching_k import greedy_maximal_1chains
from detksat.formula import hamming
from detksat.generator import gen_random_kcnf
from detksat.local_search import structured_space_for


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


def eager_product(families):
    """The radius-summing product built in one pass over every choice of
    radii: the reference for ``product_code``'s level-by-level build. Entries
    as a dict of radius -> centers."""
    entries = {}
    for combo in iproduct(*(fam.radii() for fam in families)):
        parts = [(fam.width, fam.entries[r]) for fam, r in zip(families, combo)]
        if all(words for _, words in parts):
            entries.setdefault(sum(combo), {}).update(dict.fromkeys(pack_words(parts)))
    return {r: tuple(cs) for r, cs in entries.items()}


def eager_cube(width, radius):
    """``cover_cube`` with a wide cube's block product built eagerly."""
    if width > covering.BLOCK_WIDTH and radius < width:
        blocks = covering._cube_blocks(width, radius)
        return eager_product([CodeFamily(w, eager_cube(w, r)) for w, r in blocks])
    return dict(cover_cube.__wrapped__(width, radius).entries)


def eager_ell(shapes, k, lam):
    """Every level of an ell-family built at once, and a wide power's runs
    joined by ``eager_product``: the reference for the family built when
    its levels are asked for."""
    nu, width = len(shapes), sum(w for w, _ in shapes)
    if width > covering.BLOCK_WIDTH and nu > 1:
        runs = covering._balanced(nu, max(1, covering.BLOCK_WIDTH // max(w for w, _ in shapes)))
        ends = list(accumulate(runs, initial=0))
        runs = [shapes[a:b] for a, b in zip(ends, ends[1:])]
        return eager_product([CodeFamily(sum(w for w, _ in run), eager_ell(run, k, lam)) for run in runs])
    ell = ell_for(nu, k, lam)
    member = np.zeros(1 << width, dtype=bool)
    member[list(pack_words(shapes))] = True
    uncovered = member.copy()
    entries = {}
    for r in range(ell + 1):
        budget = None if r == ell else max(1, math.ceil(Fraction(1, 1) / lam**nu / (k - 1) ** r))
        centers, uncovered = covering._greedy_cover(width, r, uncovered, member, budget)
        entries[r] = tuple(centers)
        if not uncovered.any():
            break
    assert not uncovered.any()
    return entries


def eager_generalized(space, lams, k):
    lam_iter = iter(lams)
    fams = []
    for f in space.factors:
        if isinstance(f, PowerFactor):
            fams.append(CodeFamily(f.width, eager_ell(tuple((s.width, s.words) for s in f.spaces), k, next(lam_iter))))
        elif f.width:
            fams.append(CodeFamily(f.width, eager_cube(f.width, covering.cube_radius(f.width, k))))
    return eager_product(fams)


def in_order(entries):
    """A family's levels as ``CodeFamily.levels()`` lists them."""
    return sorted(entries.items())


@contextlib.contextmanager
def block_width_set(width):
    """``covering.BLOCK_WIDTH`` set for a block of code, with the memos
    emptied before and after: usable inside a hypothesis test."""
    saved = covering.BLOCK_WIDTH
    cover_cube.cache_clear()
    covering._ell_cover_shapes.cache_clear()
    covering.BLOCK_WIDTH = width
    try:
        yield
    finally:
        covering.BLOCK_WIDTH = saved
        cover_cube.cache_clear()
        covering._ell_cover_shapes.cache_clear()


@st.composite
def _power_shapes(draw, max_width=5):
    """(width, words) of nu copies of one space, at most 12 bits in all: a
    whole cube, or a random set of words."""
    width = draw(st.integers(1, max_width))
    if draw(st.booleans()):
        words = tuple(range(1 << width))
    else:
        words = tuple(sorted(draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1))))
    return ((width, words),) * draw(st.integers(1, min(4, 12 // width)))


_lams = st.builds(Fraction, st.integers(1, 9), st.just(10))


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
        assert len(fam.entries[1]) == 512
        # the ball's transform and one correlation (two), against one
        # correlation per center before
        assert calls == [1 << 12] * 3

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


def distinct_centers(fam):
    """The family's distinct centers, over all its levels."""
    return len({c for _, cs in fam.levels() for c in cs})


def covered_at(fam, r):
    """Words within radius r of a center of the radius-r entry."""
    return [
        w for w in range(1 << fam.width) if any(hamming(w, c) <= r for c in fam.entries[r])
    ]


def lazily(fam):
    """The same family, its levels built one at a time when asked for."""
    levels = iter(list(fam.levels()))
    return CodeFamily(fam.width, description=fam.description, step=lambda: next(levels, None))


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

    @settings(max_examples=150, deadline=None)
    @given(fams=st.lists(_families(), min_size=1, max_size=3), lazy=st.booleans())
    @example(fams=[CodeFamily(1, {0: (0, 1), 1: (0,)}), CodeFamily(1, {0: (1,), 1: (1, 0)})], lazy=True)
    def test_matches_eager_product(self, fams, lazy):
        # the same centers in the same order; a level-by-level factor gives
        # the same product as a built one
        if lazy:
            fams = [lazily(fam) for fam in fams]
        assert list(product_code(fams).levels()) == in_order(eager_product(fams))

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


    def test_levels_built_past_the_limit_refused_then(self, monkeypatch):
        monkeypatch.setattr(covering, "CODE_SIZE_LIMIT", 11)
        a = lazily(CodeFamily(2, {0: (0, 1, 2), 1: (3,)}))
        b = lazily(CodeFamily(1, {0: (0,), 1: (1, 0)}))
        prod = product_code([a, b])  # nothing built yet
        levels = prod.levels()
        assert next(levels) == (0, (0, 1, 2))  # 3 * 1 centers built
        # level 1 builds level 1 of both: 4 * 3 = 12 centers
        with pytest.raises(CoverError, match="code size guard: 12 centers > 11"):
            next(levels)
        with pytest.raises(CoverError, match="code size guard"):
            prod.size()  # the refused level is not kept, so a later read repeats it


class TestBounds:
    @settings(max_examples=80, deadline=None)
    @given(shapes=_power_shapes(), k=st.integers(3, 5), lam=_lams, block=st.sampled_from([4, 6, 20]))
    @example(shapes=((4, tuple(range(16))),) * 3, k=3, lam=Fraction(1, 10), block=6)
    def test_ell_bound_at_most_size(self, shapes, k, lam, block):
        # powers kept whole and split into runs: no ell-family the product
        # guard accepts is refused by the bound
        with block_width_set(block):
            fam = covering._ell_cover_shapes(shapes, k, lam)
            assert fam.least <= fam.size()
            assert fam.distinct <= distinct_centers(fam)
            runs = covering._ell_runs(shapes)
            if runs is not None:
                fams = [covering._ell_cover_shapes(run, k, lam) for run in runs]
                assert math.prod(f.least for f in fams) <= math.prod(f.size() for f in fams)

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(0, 12), radius=st.integers(0, 13), block=st.sampled_from([4, 20]))
    def test_cube_bound_at_most_size(self, width, radius, block):
        with block_width_set(block):
            fam = cover_cube(width, radius)
            assert fam.least <= fam.size()
            assert fam.distinct <= distinct_centers(fam)

    @settings(max_examples=150, deadline=None)
    @given(fams=st.lists(st.tuples(_families(), st.booleans()), min_size=1, max_size=3))
    @example(fams=[(CodeFamily(1, {0: (0, 1), 1: (0,)}), False), (CodeFamily(2, {1: (3,), 2: (3, 0)}), False)])
    def test_product_bound_at_most_size(self, fams):
        # each factor given at once or built one level at a time
        prod = product_code([lazily(fam) if lazy else fam for fam, lazy in fams])
        assert prod.least <= prod.size()
        assert prod.distinct <= distinct_centers(prod)

    def test_ell_bound_by_hand(self):
        # one 3-bit space of 7 words at k = 3, lambda = 1/2: ell = 3 and
        # budgets 2, 1, 1. Level 0 takes 2 words, leaving at least 5; level
        # 1 min(1, ceil(5 / 4)) = 1, leaving at least 1; level 2 min(1, 1)
        # and level 3 ceil(0 / 8) = 0
        shapes = ((3, tuple(range(1, 8))),)
        assert covering._ell_level_least(shapes, 3, Fraction(1, 2)) == [2, 1, 1, 0]
        assert covering._ell_cover_shapes(shapes, 3, Fraction(1, 2)).least == 4


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

    @pytest.mark.parametrize("limit", [747, 748])
    def test_forming_builds_nothing(self, monkeypatch, limit):
        # gen_random_kcnf(4, 16, 158, 0): a 4-bit cube at radius 1 (at least
        # ceil(16 / 5) = 4 centers) times a 12-bit power of three 1-chains (at
        # least 187), so the product's guard multiplies 4 * 187 = 748
        f = gen_random_kcnf(4, 16, 158, 0)
        space, lams = structured_space_for(f, greedy_maximal_1chains(f), 4)
        assert [fac.width for fac in space.factors] == [4, 12]

        def no_build(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(covering, "_greedy_cover", no_build)
        monkeypatch.setattr(covering, "pack_words", no_build)
        monkeypatch.setattr(covering, "CODE_SIZE_LIMIT", limit)
        if limit < 748:
            with pytest.raises(CoverError, match="code size guard: at least 748 centers > 747"):
                fresh(monkeypatch, "build_generalized_code", space, lams, 4)
        else:
            assert fresh(monkeypatch, "build_generalized_code", space, lams, 4).least == 748

    def test_determinism(self, monkeypatch):
        sp = solution_space(canonical_realization("n*"))
        space = StructuredSpace((CubeFactor(5), PowerFactor((sp,))))
        lam = lambda_for_zeta("n*")
        a = build_generalized_code(space, [lam], 3)
        b = fresh(monkeypatch, "build_generalized_code", space, [lam], 3)
        assert a.entries == b.entries


class TestEagerEquivalence:
    """Every family, built to the end one level at a time, lists the
    entries the eager build gives, in the same order."""

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(0, 13), radius=st.integers(0, 6), block=st.sampled_from([4, 5, 20]))
    @example(width=13, radius=4, block=5)
    def test_cubes(self, width, radius, block):
        with block_width_set(block):
            assert list(cover_cube(width, radius).levels()) == in_order(eager_cube(width, radius))

    @settings(max_examples=60, deadline=None)
    @given(shapes=_power_shapes(), k=st.integers(3, 5), lam=_lams, block=st.sampled_from([4, 6, 20]))
    @example(shapes=((3, (1, 2, 3, 4, 5, 6, 7)),) * 3, k=3, lam=Fraction(3, 7), block=6)
    def test_ell_families(self, shapes, k, lam, block):
        with block_width_set(block):
            fam = covering._ell_cover_shapes(shapes, k, lam)
            assert list(fam.levels()) == in_order(eager_ell(shapes, k, lam))

    @settings(max_examples=40, deadline=None)
    @given(
        cube=st.integers(0, 7),
        groups=st.lists(st.tuples(_power_shapes(max_width=3), _lams), max_size=2),
        k=st.integers(3, 5),
        block=st.sampled_from([4, 20]),
        first=st.integers(0, 3),
    )
    # two 12-bit powers of 4096 centers each: 2^24 > CODE_SIZE_LIMIT
    @example(cube=0, groups=[(((3, tuple(range(8))),) * 4, Fraction(1, 10))] * 2, k=3, block=4, first=0)
    def test_generalized(self, cube, groups, k, block, first):
        factors = [CubeFactor(cube)] if cube else []
        for shapes, _ in groups:
            factors.append(PowerFactor(tuple(SolutionSpace(words, tuple(range(w))) for w, words in shapes)))
        space = StructuredSpace(tuple(factors))
        lams = [lam for _, lam in groups]
        if not space.width:
            return
        with block_width_set(block):
            cubes = [cover_cube(cube, covering.cube_radius(cube, k))] if cube else []
            fams = cubes + [covering._ell_cover_shapes(shapes, k, lam) for shapes, lam in groups]
            try:
                # a first family reads a few levels, which builds only some
                # levels of the shared factors; a second reads every level
                for _ in zip(range(first), build_generalized_code(space, lams, k).levels()):
                    pass
                fam = build_generalized_code(space, lams, k)
                got = list(fam.levels())
            except CoverError as e:
                # the guard refuses only a product whose factor sizes
                # multiply past the limit
                assert str(e).startswith("code size guard")
                assert math.prod(f.size() for f in fams) > covering.CODE_SIZE_LIMIT
                return
            assert got == in_order(eager_generalized(space, lams, k))
            # the bounds refuse nothing that every product guard accepts: the
            # limit is the largest count one of them multiplies, and the
            # family is formed afresh, with no level built
            counts = [math.prod(f.size() for f in fams)]
            for shapes, lam in groups:
                runs = covering._ell_runs(shapes) or []
                counts.append(math.prod(covering._ell_cover_shapes(run, k, lam).size() for run in runs))
            with pytest.MonkeyPatch.context() as m:
                m.setattr(covering, "CODE_SIZE_LIMIT", max(counts))
                fresh(m, "build_generalized_code", space, lams, k)


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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    @example(None)
    def test_matches_per_center_pass(self, data):
        # random families (often leaving gaps) over cubes and chain-space
        # products, so that some radii mark balls and the rest pass over words
        if data is None:
            # radius 1 marks a 4-word ball; radius 2's center is wider than
            # the space, so it passes over the words (and covers the same
            # four); radius 3 (a ball of all 8 words) would pass over them
            # but has no center; 0b011 is the first word left uncovered
            space = StructuredSpace((CubeFactor(3),))
            fam = CodeFamily(3, {1: (0b000,), 2: (0b1000,), 3: ()})
        else:
            sp = solution_space(canonical_realization(data.draw(st.sampled_from(["*", "n*", "tp*"]))))
            factors = [CubeFactor(data.draw(st.integers(0, 6)))]
            factors.append(PowerFactor((sp,) * data.draw(st.integers(0, 2))))
            space = StructuredSpace(tuple(f for f in factors if f.width))
            words = list(space.enumerate_words())
            radii = data.draw(st.lists(st.integers(0, space.width), min_size=1, max_size=3, unique=True))
            fam = CodeFamily(space.width, {
                r: tuple(data.draw(st.lists(st.sampled_from(words), max_size=12))) for r in radii})
        words = np.fromiter(space.enumerate_words(), dtype=np.int64)
        covered = np.zeros(words.shape, dtype=bool)
        for r in fam.radii():
            for c in fam.entries[r]:
                covered |= np.bitwise_count(words ^ c) <= r
        example = None if covered.all() else int(words[np.argmin(covered)])
        rep = verify_coverage(fam, space)
        assert (rep.ok, rep.checked, rep.sampled, rep.uncovered_example) == (
            bool(covered.all()), len(words), False, example)
        if data is None:
            assert rep.uncovered_example == 0b011

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
