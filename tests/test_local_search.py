import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detksat.branching_k import SolveStats, solve_ksat
from detksat import local_search
from detksat.bounds import lambda_1chain
from detksat.chains import build_chain, build_instance, canonical_realization, canonical_zeta, zeta
from detksat.characteristic import characteristic_for_chain
from detksat.covering import build_generalized_code
from detksat.formula import brute_force_sat, clause, formula, hamming, satisfies, verify_model
from detksat.generator import gen_random_kcnf
from detksat.local_search import DlsStats, dls, group_lambda, searchball, structured_space_for


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


class _CountingTables(tuple):
    """Per-byte tables that count the nodes a search visits: searchball
    passes over the tables once per node."""

    visits = 0

    def __iter__(self):
        self.visits += 1
        return super().__iter__()


@st.composite
def _cnf(draw, min_width=1, max_n=8):
    """CNFs of clause widths min_width..5 with duplicate clauses and unused
    variables (n = 0 included)."""
    n = draw(st.integers(0, max_n))
    var_sets = st.lists(st.integers(1, n), min_size=min_width, max_size=min(5, n), unique=True)
    cls = [tuple(v if draw(st.booleans()) else -v for v in vs)
           for vs in draw(st.lists(var_sets, max_size=16))] if n else []
    if min_width == 0 and draw(st.booleans()):
        cls.insert(draw(st.integers(0, len(cls))), ())
    if cls:
        for i in draw(st.lists(st.integers(0, len(cls) - 1), max_size=3)):
            cls.insert(draw(st.integers(0, len(cls))), cls[i])
    return formula(n, cls)


@st.composite
def _ball(draw):
    """A CNF without bottom, a center word and a radius from 0 to n + 1."""
    f = draw(_cnf())
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
        # Every 3-subset of 1..6 as an all-positive clause: a solution sets at
        # least four of the six, so the radius-3 ball around 0 holds none. A
        # flip only sets a bit, so each word is reached with one budget, and
        # each word reached with budget left is expanded once, however many
        # flip orders reach it (31 nodes; the uncut tree has 1 + 3 + 9 + 27).
        f = formula(6, list(combinations(range(1, 7), 3)))
        r = 3

        def first_unsat(w):
            return next(c.lits for c in f.clauses if not any(w >> (v - 1) & 1 for v in c.lits))

        expanded, level = set(), {0}
        for _ in range(r):
            expanded |= level
            level = {w | 1 << (v - 1) for w in level for v in first_unsat(w)}
        tables = _CountingTables(f.byte_sat_tables)
        vars(f)["byte_sat_tables"] = tables
        assert searchball(f, 0, r) is None
        assert tables.visits == 1 + 3 * len(expanded) == 31

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
        # already flipped. Each visit is recorded by the word it looks up (one
        # table: n <= 8). Every flip moves one step away from the center, so a
        # word at distance d is reached with budget r - d and expanded (d < r)
        # exactly once: each visit of w is one allowed flip from a distinct
        # expanded word.
        n, r, center = 8, 4, 0b10100110
        f = gen_random_kcnf(3, n, 50, 0)
        assert brute_force_sat(f) is None

        words = []

        class Recording(tuple):
            def __getitem__(self, i):
                words.append(i)
                return super().__getitem__(i)

        tables = _CountingTables((Recording(f.byte_sat_tables[0]),))
        vars(f)["byte_sat_tables"] = tables
        assert searchball(f, center, r) is None
        assert len(words) == tables.visits
        visits = Counter(words)
        assert all(hamming(w, center) <= r for w in visits)

        def first_unsat(w):
            alpha = as_alpha(w, n)
            return next(c.lits for c in f.clauses
                        if not any((alpha[abs(l)] == 1) == (l > 0) for l in c.lits))

        want = Counter([center])
        for w in visits:
            if hamming(w, center) < r:
                for l in first_unsat(w):
                    if not (w ^ center) >> (abs(l) - 1) & 1:
                        want[w ^ 1 << (abs(l) - 1)] += 1
        assert visits == want
        assert tables.visits <= sum(comb(n, i) for i in range(r + 1))

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


class TestDls:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 21).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
    def test_center_words_match_bit_loop(self, coord_vars, data):
        tables = local_search._byte_word_tables(tuple(coord_vars))
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
        from detksat.characteristic import characteristic_for_chain, lambda_for_zeta
        from detksat.covering import build_generalized_code

        f = formula(6, [(1, 2, 3), (4, 5, 6)])
        chain = build_chain([f.clauses[0]], 3)
        wants = {3: lambda_for_zeta("*"), 4: characteristic_for_chain(chain, 4).lam}
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
        monkeypatch.setattr(local_search, "_GROUP_LAMBDAS", memo)
        rng = random.Random(7)
        chains = [(z, canonical_realization(z), k) for z in dict.fromkeys(z for _, z, *_ in REFERENCE_CHAIN_TYPES)
                  for k in (3, 4, 5)]
        chains += [("*", build_chain([clause(range(1, k + 1))], k), k) for k in (4, 5, 6)]
        for z, chain, k in chains:
            group_lambda(z, chain, k)
            other = _relabeled(chain, rng)
            assert canonical_zeta(zeta(other.clauses)) == canonical_zeta(z)
            assert group_lambda(z, other, k) == characteristic_for_chain(other, k).lam, (z, k)
        assert len(memo) == len(chains)
        for k in (4, 5, 6):
            assert memo["*", k, k] == lambda_1chain(k)
        # one type, two clause widths, two values
        assert memo["*", 3, 4] != memo["*", 4, 4]
