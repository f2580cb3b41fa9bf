import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detksat.branching_k import SolveStats, solve_ksat
from detksat import characteristic, covering
from detksat.bounds import lambda_1chain
from detksat.chains import build_chain, build_instance, canonical_realization, canonical_zeta, solution_space, zeta
from detksat.characteristic import lambda_for_zeta, solve_characteristic
from detksat.covering import build_generalized_code
from detksat.formula import brute_force_sat, byte_tables, clause, formula, hamming, satisfies, verify_model
from detksat.generator import gen_random_kcnf
from detksat.local_search import DlsStats, ball_searcher, dls, structured_space_for


def searchball(f, center, r):
    """The first hit of the radius-r ball around center, or None."""
    return ball_searcher(f)((center,), r)[1]


def as_word(alpha, n):
    return sum(alpha[v] << (v - 1) for v in range(1, n + 1))


def as_alpha(word, n):
    return {v: (word >> (v - 1)) & 1 for v in range(1, n + 1)}


def _dict_ball_search(f, alpha, r, flip_back):
    """Dict-based depth-first ball search around alpha; with flip_back False
    a literal whose variable already differs from alpha is skipped."""
    cur = dict(alpha)

    def first_unsat():
        for c in f.clauses:
            if not any((cur.get(abs(l), 0) == 1) == (l > 0) for l in c.lits):
                return c.lits
        return None

    def rec(budget):
        lits = first_unsat()
        if lits is None:
            return True
        if budget == 0:
            return False
        for l in lits:
            v = abs(l)
            old = cur.get(v, 0)
            if not flip_back and old != alpha.get(v, 0):
                continue
            cur[v] = 1 if l > 0 else 0
            if rec(budget - 1):
                return True
            cur[v] = old
        return False

    return dict(cur) if rec(r) else None


def _ref_searchball(f, alpha, r):
    """The reference for searchball: the same hit order, no flip back."""
    return _dict_ball_search(f, alpha, r, flip_back=False)


def _ref_searchball_any_order(f, alpha, r):
    """The plain search that may flip a variable back: searchball finds a hit
    exactly when it does, though not always the same one."""
    return _dict_ball_search(f, alpha, r, flip_back=True)


def _ref_dls(f, inst):
    """dls run by the reference ball search: the same generalized family,
    center by center in radius order. Returns the hit and the balls searched."""
    k = max(3, f.width())
    space, lams = structured_space_for(f, inst, k)
    fam = build_generalized_code(space, lams, k)
    coord_vars = space.coordinate_variables()  # every variable, once
    balls = 0
    for r in fam.radii():
        for center in fam.entries[r]:
            alpha = {v: (center >> i) & 1 for i, v in enumerate(coord_vars)}
            balls += 1
            hit = _ref_searchball(f, alpha, r)
            if hit is not None:
                return hit, balls
    return None, balls


def _one_chains(f, limit):
    """Up to `limit` variable-disjoint 3-clauses of f, each as a 1-chain."""
    chains, used = [], set()
    for c in f.clauses:
        if len(chains) < limit and c.width == 3 and not (c.variables() & used):
            chains.append(build_chain([c], 3))
            used |= c.variables()
    return chains


def _cut_search(f, center, r):
    """An independent model of searchball's cut search, on clause literal
    lists: its hit and the words it evaluates, in order (searchball makes
    one table pass per word it evaluates).

    Depth first over the literals of the first false clause, without flips
    back. A child is evaluated unless its parent has budget 1 and its
    literal leaves a false clause false, or its parent has budget 2 and no
    unmoved literal of the first clause its literal leaves false sets all
    those clauses true, or the child was already searched and found empty.
    """
    clauses = [c.lits for c in f.clauses]
    evaluated, empty = [], set()

    def is_true(w, l):
        return (w >> (abs(l) - 1) & 1) == (l > 0)

    def false_clauses(w):
        evaluated.append(w)
        return [c for c in clauses if not any(is_true(w, l) for l in c)]

    def unmoved(w, l):
        return not (w ^ center) >> (abs(l) - 1) & 1

    def rec(w, false, budget):
        for l in false[0]:
            if not unmoved(w, l):
                continue
            left = [c for c in false if l not in c]
            if budget == 1 and left:
                continue
            if budget == 2 and left and not any(
                    unmoved(w, l2) and all(l2 in c for c in left) for l2 in left[0]):
                continue
            child = w ^ 1 << (abs(l) - 1)
            if budget > 1 and child in empty:
                continue
            child_false = false_clauses(child)
            if not child_false:
                return child
            if budget > 1:
                hit = rec(child, child_false, budget - 1)
                if hit is not None:
                    return hit
        empty.add(w)
        return None

    false = false_clauses(center)
    hit = center if not false else rec(center, false, r) if r else None
    return hit, evaluated


class _ByteReader:
    def __init__(self, table, words, shift):
        self.table, self.words, self.shift = table, words, shift

    def __getitem__(self, i):
        self.words[-1] |= i << self.shift
        return self.table[i]


class _RecordingTables(tuple):
    """Per-byte tables that record the word of each table pass: searchball
    reads every table once per word it evaluates."""

    def __iter__(self):
        self.words.append(0)
        return (_ByteReader(t, self.words, 8 * j) for j, t in enumerate(super().__iter__()))


def _recorded_search(f, center, r):
    """searchball's hit and the words it evaluates, in order."""
    tables = _RecordingTables(f.byte_sat_tables)
    tables.words = []
    g = formula(f.n, [c.lits for c in f.clauses])
    vars(g)["byte_sat_tables"] = tables
    return searchball(g, center, r), tables.words


@st.composite
def _cnf(draw, min_width=1, max_n=8, max_clauses=16):
    """CNFs of clause widths min_width..5 with duplicate clauses and unused
    variables (n = 0 included)."""
    n = draw(st.integers(0, max_n))
    var_sets = st.lists(st.integers(1, n), min_size=min_width, max_size=min(5, n), unique=True)
    cls = [tuple(v if draw(st.booleans()) else -v for v in vs)
           for vs in draw(st.lists(var_sets, max_size=max_clauses))] if n else []
    if min_width == 0 and draw(st.booleans()):
        cls.insert(draw(st.integers(0, len(cls))), ())
    if cls:
        for i in draw(st.lists(st.integers(0, len(cls) - 1), max_size=3)):
            cls.insert(draw(st.integers(0, len(cls))), cls[i])
    return formula(n, cls)


@st.composite
def _ball(draw, max_n=8, max_clauses=16):
    """A CNF without bottom, a center word and a radius from 0 to n + 1."""
    f = draw(_cnf(max_n=max_n, max_clauses=max_clauses))
    return f, draw(st.integers(0, (1 << f.n) - 1)), draw(st.integers(0, f.n + 1))


class TestSearchball:
    def test_one_flip(self):
        f = formula(3, [(1, 2, 3)])
        hit = searchball(f, 0b000, 1)
        assert hit == 0b001  # first literal flipped first

    def test_zero_budget(self):
        f = formula(3, [(1, 2, 3)])
        assert searchball(f, 0b000, 0) is None

    def test_rejects_bottom_and_negative_radius(self):
        with pytest.raises(ValueError):
            searchball(formula(2, [(1,), ()]), 0, 2)
        with pytest.raises(ValueError):
            searchball(formula(2, [(1, 2)]), 0, -1)

    @settings(max_examples=400, deadline=None)
    @given(_ball())
    @example((formula(0, []), 0, 1))
    @example((formula(2, [(-2, 1), (2, 1)]), 0, 3))
    def test_matches_dict_reference(self, ball):
        f, center, r = ball
        got = searchball(f, center, r)
        want = _ref_searchball(f, as_alpha(center, f.n), r)
        assert got == (None if want is None else as_word(want, f.n))

    @settings(max_examples=400, deadline=None)
    @given(_ball())
    def test_verdict_matches_any_order_search(self, ball):
        # skipping flips back loses no solution: the ball holds a hit exactly
        # when the search that may flip back finds one
        f, center, r = ball
        got = searchball(f, center, r)
        want = _ref_searchball_any_order(f, as_alpha(center, f.n), r)
        assert (got is None) == (want is None)
        if got is not None:
            assert satisfies(f, as_alpha(got, f.n))
            assert hamming(got, center) <= r

    def test_sub_ball_expanded_once(self):
        # Every 3-subset of 1..8 as an all-positive clause: a solution sets at
        # least six of the eight, so the radius-5 ball around 0 holds none. A
        # flip only sets a bit, so each word is reached with one budget, and
        # each word is evaluated once, however many flip orders reach it: a
        # word reached again was searched and found empty. A word with three
        # bits set (budget 2) has every child cut, since the four clauses
        # over the other four variables share no variable, so the words
        # evaluated are the words reached at distance 0..3 (the uncut tree
        # has 1 + 3 + ... + 3^5 nodes).
        f = formula(8, list(combinations(range(1, 9), 3)))
        r = 5

        def first_unsat(w):
            return next(c.lits for c in f.clauses if not any(w >> (v - 1) & 1 for v in c.lits))

        reached, level = 0, {0}
        for _ in range(r - 1):
            reached += len(level)
            level = {w | 1 << (v - 1) for w in level for v in first_unsat(w)}
        hit, words = _recorded_search(f, 0, r)
        assert hit is None
        assert words == _cut_search(f, 0, r)[1]
        assert len(words) == len(set(words)) == reached == 20

    def test_word_revisited_below_itself(self):
        # The search that may flip back reaches 00 -(x2)-> 10 -(not x2)-> 00
        # with budget 1 and returns its first hit there, x1 = 1 (0b01). At 10
        # the branched clause is (not x2, x1), and x2 already differs from the
        # center, so searchball flips x1 instead and returns 0b11 (distance 2
        # <= 3). Both words satisfy f; the hit order is the no-flip-back one.
        f = formula(2, [(-2, 1), (2, 1)])
        assert as_word(_ref_searchball_any_order(f, as_alpha(0, 2), 3), 2) == 0b01
        assert searchball(f, 0b00, 3) == 0b11 == as_word(_ref_searchball(f, as_alpha(0, 2), 3), 2)

    def test_no_word_expanded_twice(self):
        # An unsatisfiable random 3-CNF over 8 variables with mixed signs, so
        # the whole ball is searched and a branched clause can hold a variable
        # already flipped. Every flip moves one step away from the center, so
        # a word at distance d is reached with budget r - d; one below the
        # last level (d < r) is evaluated once, and a word reached again was
        # searched and found empty. The words evaluated, in order, are the
        # cut search model's.
        n, r, center = 8, 4, 0b10100110
        f = gen_random_kcnf(3, n, 50, 0)
        assert brute_force_sat(f) is None
        hit, words = _recorded_search(f, center, r)
        assert hit is None
        assert words == _cut_search(f, center, r)[1]
        visits = Counter(words)
        assert all(hamming(w, center) <= r for w in visits)
        assert all(c == 1 for w, c in visits.items() if hamming(w, center) < r)
        assert len(words) == 22
        assert len(words) <= sum(comb(n, i) for i in range(r + 1))

    def test_last_flip_may_falsify_another_clause(self):
        # At 000 only (1, 2) is false. Setting x1 satisfies it, so the flip
        # passes the mask test, but it falsifies (-1, 3): the pass after it
        # rejects 001, and x2 gives the hit.
        f = formula(3, [(1, 2), (-1, 3)])
        assert _recorded_search(f, 0b000, 1) == (0b010, [0b000, 0b001, 0b010])
        assert as_word(_ref_searchball(f, as_alpha(0, 3), 1), 3) == 0b010

    def test_two_flip_cut_reads_the_clauses_left(self):
        # At 00000, (1, 2) and (4, 5) are false. After x1, (4, 5) is left;
        # x4 would satisfy it, so the child 00001 is evaluated. There
        # (-1, 4), newly falsified, is the first false clause, ahead of
        # (4, 5); x1 is moved, and x4 satisfies both.
        f = formula(5, [(-1, 4), (1, 2), (4, 5)])
        assert _recorded_search(f, 0, 2) == (0b01001, [0, 0b00001, 0b01001])
        assert as_word(_ref_searchball(f, as_alpha(0, 5), 2), 5) == 0b01001
        # After x1 (or x2), (3, 5) and (4, 6) are left, and no literal of
        # (3, 5) satisfies both: neither child is evaluated, although the
        # child 00001 would branch (-1, 4) first.
        f = formula(6, [(-1, 4), (1, 2), (3, 5), (4, 6)])
        assert _recorded_search(f, 0, 2) == (None, [0])
        assert _ref_searchball(f, as_alpha(0, 6), 2) is None

    @settings(max_examples=300, deadline=None)
    @given(_ball(max_n=12, max_clauses=40))
    def test_table_passes_match_cut_model(self, ball):
        # clause widths 1..5, radii 0..n + 1, up to 40 clauses and two byte
        # tables: the hit and the words evaluated are the cut model's (the
        # uncut reference, which has no empty set, is too slow at n = 12;
        # test_matches_dict_reference ties the hit to it for n <= 8)
        f, center, r = ball
        assert _recorded_search(f, center, r) == _cut_search(f, center, r)

    def test_complete_within_ball(self):
        # against direct enumeration of the ball
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(4, 9)
            f = gen_random_kcnf(3, n, rng.randint(6, 5 * n), rng.randint(0, 10**6))
            center = {v: rng.randint(0, 1) for v in range(1, n + 1)}
            r = rng.randint(0, 3)
            cw = as_word(center, n)
            got = searchball(f, cw, r)
            exists = False
            for flips in range(r + 1):
                for pos in combinations(range(n), flips):
                    w = cw
                    for p in pos:
                        w ^= 1 << p
                    alpha = {v: (w >> (v - 1)) & 1 for v in range(1, n + 1)}
                    if satisfies(f, alpha):
                        exists = True
                        break
                if exists:
                    break
            assert (got is not None) == exists
            if got is not None:
                assert satisfies(f, as_alpha(got, n))
                assert hamming(got, cw) <= r


def _fresh_scan(f, centers, r):
    """A level scan as a loop of fresh searchball calls: the balls searched,
    the hit's included, and the first hit."""
    for balls, center in enumerate(centers, 1):
        hit = searchball(f, center, r)
        if hit is not None:
            return balls, hit
    return len(centers), None


@st.composite
def _levels(draw):
    """A CNF without bottom and up to three levels of one searcher: center
    lists holding repeats and neighbours (words one flip apart), each with
    a radius from 0 to 4."""
    f = draw(_cnf())
    base = draw(st.lists(st.integers(0, (1 << f.n) - 1), min_size=1, max_size=5))
    picks = st.tuples(st.integers(0, len(base) - 1), st.integers(-1, f.n - 1))
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        centers = [base[i] if j < 0 else base[i] ^ 1 << j for i, j in draw(st.lists(picks, max_size=8))]
        levels.append((centers, draw(st.integers(0, 4))))
    return f, levels


class TestBallSearcher:
    @settings(max_examples=300, deadline=None)
    @given(_levels())
    @example((formula(4, [(-4, 3), (4, 1), (2,), (-2, -3)]), [([0b1100, 0b1110, 0b1110], 3), ([0b0011], 0)]))
    def test_scan_matches_fresh_searchball(self, case):
        f, levels = case
        scan = ball_searcher(f)
        for centers, r in levels:
            assert scan(centers, r) == _fresh_scan(f, centers, r)

    def test_empty_set_is_per_ball(self):
        # The only solution is 0011 (x1 = x2 = 1, x3 = x4 = 0; x4 leftmost).
        # Under center 1100 the radius-3 ball holds none: the search flips x2
        # (1110), then x3 (1010, budget 1); there (-4, 3) is the first false
        # clause, x3 is moved and setting x4 false falsifies (4, 1), so 1010
        # and then 1110 are found empty. Under center 1110 the hit is 3 flips
        # away through 1010, now with budget 2 (x3, x4, then x1). A set kept
        # from the first ball would skip 1010 and miss it.
        f = formula(4, [(-4, 3), (4, 1), (2,), (-2, -3)])
        assert searchball(f, 0b1100, 3) is None
        assert searchball(f, 0b1110, 3) == 0b0011
        assert ball_searcher(f)([0b1100, 0b1110], 3) == (2, 0b0011)

    def test_rejects_bottom_and_negative_radius(self):
        with pytest.raises(ValueError):
            ball_searcher(formula(2, [(1,), ()]))
        with pytest.raises(ValueError):
            ball_searcher(formula(2, [(1, 2)]))([0], -1)


class TestDls:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 21).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
    def test_center_words_match_bit_loop(self, coord_vars, data):
        tables = byte_tables([(0, 1 << (v - 1)) for v in coord_vars])
        center = data.draw(st.integers(0, (1 << len(coord_vars)) - 1))
        word, rest = 0, center
        for table in tables:
            word |= table[rest & 255]
            rest >>= 8
        assert word == sum(((center >> i) & 1) << (v - 1) for i, v in enumerate(coord_vars))

    def test_empty_instance_agrees_with_oracle(self):
        for seed in range(40):
            f = gen_random_kcnf(3, 10, 42, seed)
            hit = dls(f)
            want = brute_force_sat(f)
            assert (hit is not None) == (want is not None)
            if hit is not None:
                assert satisfies(f, hit)

    @settings(max_examples=150, deadline=None)
    @given(_cnf(min_width=0, max_n=9))
    def test_verdict_matches_oracle_mixed_widths(self, f):
        hit = dls(f)
        want = brute_force_sat(f)
        assert (hit is None) == (want is None)
        if hit is not None:
            assert sorted(hit) == list(range(1, f.n + 1))
            verify_model(f, hit)

    @settings(max_examples=120, deadline=None)
    @given(_cnf(max_n=8), st.integers(0, 2))
    @example(formula(3, [(a, b, c) for a in (1, -1) for b in (2, -2) for c in (3, -3)]), 1)
    @example(formula(7, [(1, 2, 3), (-4, 5, 6), (1, -7), (-2, 4, 7)]), 2)
    def test_matches_reference_loop(self, f, nchains):
        # same hit and same ball count as the dict-based ball search run over
        # the same family; UNSAT formulas search every ball
        assume(f.n > 0)
        inst = build_instance(_one_chains(f, nchains))
        stats = DlsStats()
        got = dls(f, inst, stats)
        want, balls = _ref_dls(f, inst)
        assert got == want
        assert stats.balls_searched == balls

    def test_unsat_contradiction(self):
        pats = [(s1 * 1, s2 * 2, s3 * 3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        f = formula(3, pats)
        assert dls(f) is None

    def test_chain_centers_respect_solution_space(self):
        # instance holding one 1-chain: no center assigns the excluded word
        from detksat.covering import build_generalized_code

        f = formula(6, [(1, 2, 3), (4, 5, 6)])
        chain = build_chain([f.clauses[0]], 3)
        wants = {3: lambda_for_zeta("*"), 4: solve_characteristic(solution_space(chain), 4).lam}
        for k, want in wants.items():
            space, lams = structured_space_for(f, build_instance([chain]), k)
            assert lams == [want]
            fam = build_generalized_code(space, lams, k)
            pos = {v: i for i, v in enumerate(space.coordinate_variables())}
            for r in fam.radii():
                for c in fam.entries[r]:
                    assert any((c >> pos[v]) & 1 for v in (1, 2, 3))

    def test_with_nonempty_instance(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(7, 12)
            f = gen_random_kcnf(3, n, rng.randint(6, 4 * n), rng.randint(0, 10**6))
            inst = build_instance(_one_chains(f, 2))
            hit = dls(f, inst)
            want = brute_force_sat(f)
            assert (hit is not None) == (want is not None)
            if hit is not None:
                assert satisfies(f, hit)

    def test_determinism(self):
        f = gen_random_kcnf(3, 9, 38, 5)
        s1, s2 = DlsStats(), DlsStats()
        a = dls(f, stats=s1)
        b = dls(f, stats=s2)
        assert a == b
        assert s1.balls_searched == s2.balls_searched


class TestCodeBuiltAsFarAsSearched:
    @staticmethod
    def greedy_levels(monkeypatch):
        """(width, radius) of every greedy level built from here on, with
        the code memos emptied first."""
        calls = []
        greedy = covering._greedy_cover

        def spy(width, radius, target, candidates, budget=None):
            calls.append((width, radius))
            return greedy(width, radius, target, candidates, budget)

        monkeypatch.setattr(covering, "_greedy_cover", spy)
        covering.cover_cube.cache_clear()
        covering._ell_cover_shapes.cache_clear()
        return calls

    def test_sat_builds_only_the_levels_searched(self, monkeypatch):
        # the first dls-threshold instance hits in a ball of total radius 1:
        # the 4-bit cube at radius 1 times level 0 of the 12-bit ell-family
        calls = self.greedy_levels(monkeypatch)
        stats = SolveStats()
        assert solve_ksat(gen_random_kcnf(4, 16, 158, 0), stats=stats).verdict == "SAT"
        assert calls == [(4, 1), (12, 0)]
        assert stats.dls.code_sizes == {1: 500}
        assert stats.dls.balls_searched == 175

    def test_unsat_builds_every_level(self, monkeypatch):
        calls = self.greedy_levels(monkeypatch)
        stats = SolveStats()
        assert solve_ksat(gen_random_kcnf(4, 16, 158, 2), stats=stats).verdict == "UNSAT"
        assert calls == [(4, 1)] + [(12, r) for r in range(7)]
        assert stats.dls.code_sizes == {1: 500, 2: 168, 3: 56, 4: 20, 5: 8, 6: 4, 7: 8}
        assert stats.dls.balls_searched == sum(stats.dls.code_sizes.values())


class TestPinnedFingerprint:
    # The six dls-threshold bench instances, gen_random_kcnf(k, n, m, seed):
    # verdict, balls searched and SAT assignment bits (variable 1 first) as
    # the search that may flip a variable back gave them. The ball search
    # must keep them; a change that moves one is a behaviour change.
    PINNED = {
        (4, 16, 158, 0): ("SAT", 175, "0010010100101110"),
        (4, 16, 158, 1): ("SAT", 587, "1000000110101000"),
        (4, 16, 158, 2): ("UNSAT", 764, ""),
        (4, 16, 158, 3): ("SAT", 637, "1100111110000111"),
        (5, 14, 294, 0): ("UNSAT", 592, ""),
        (5, 14, 294, 1): ("SAT", 462, "01100110110000"),
    }

    @pytest.mark.parametrize("shape", sorted(PINNED), ids="k{0[0]}-n{0[1]}-s{0[3]}".format)
    def test_threshold_instances(self, shape):
        k, n, m, seed = shape
        stats = SolveStats()
        res = solve_ksat(gen_random_kcnf(k, n, m, seed), stats=stats)
        bits = "".join(str(res.assignment[v]) for v in range(1, n + 1)) if res.assignment else ""
        assert stats.path == "DLS"
        assert (res.verdict, stats.dls.balls_searched, bits) == self.PINNED[shape]


class TestPinnedDlsSat:
    # The four k >= 4 dls-sat bench instances, gen_random_kcnf(k, n, m, seed),
    # all decided in the radius-2 level: verdict, balls searched and
    # assignment bits (variable 1 first).
    PINNED = {
        (4, 18, 126, 1): ("SAT", 173, "000010111010111101"),
        (4, 18, 126, 3): ("SAT", 73, "010000011010100100"),
        (5, 17, 255, 1): ("SAT", 147, "10011111001000010"),
        (5, 17, 255, 3): ("SAT", 719, "10001010000100010"),
    }

    @pytest.mark.parametrize("shape", sorted(PINNED), ids="k{0[0]}-n{0[1]}-s{0[3]}".format)
    def test_sat_instances(self, shape):
        k, n, m, seed = shape
        stats = SolveStats()
        res = solve_ksat(gen_random_kcnf(k, n, m, seed), stats=stats)
        bits = "".join(str(res.assignment[v]) for v in range(1, n + 1))
        assert stats.path == "DLS"
        assert (res.verdict, stats.dls.balls_searched, bits) == self.PINNED[shape]


def _relabeled(chain, rng):
    """The chain under a random renaming of its variables, random sign flips
    and a random literal order in each clause: the same type and width."""
    vs = sorted(chain.variables())
    ren = dict(zip(vs, rng.sample(range(1, 3 * len(vs) + 1), len(vs))))
    flip = {v: rng.choice((1, -1)) for v in vs}
    cls = [clause(rng.sample([flip[abs(l)] * (ren[abs(l)] if l > 0 else -ren[abs(l)]) for l in c.lits], c.width))
           for c in chain.clauses]
    return build_chain(cls, chain.k)


class TestGroupLambda:
    def test_memo_equals_a_fresh_solve(self, monkeypatch):
        # the memo is filled from one realization of each (type, clause
        # width, k) and read for another
        from detksat.table_data import REFERENCE_CHAIN_TYPES

        memo = {}
        monkeypatch.setattr(characteristic, "_LAMBDA_CACHE", memo)
        rng = random.Random(7)
        chains = [(z, canonical_realization(z), k) for z in dict.fromkeys(z for _, z, *_ in REFERENCE_CHAIN_TYPES)
                  for k in (3, 4, 5)]
        chains += [("*", build_chain([clause(range(1, k + 1))], k), k) for k in (4, 5, 6)]
        for z, chain, k in chains:
            lambda_for_zeta(z, chain, k)
            other = _relabeled(chain, rng)
            assert canonical_zeta(zeta(other.clauses)) == canonical_zeta(z)
            assert lambda_for_zeta(z, other, k) == solve_characteristic(solution_space(other), k).lam, (z, k)
        assert len(memo) == len(chains)
        for k in (4, 5, 6):
            assert memo["*", k, k] == lambda_1chain(k)
        # one type, two clause widths, two values
        assert memo["*", 3, 4] != memo["*", 4, 4]
