import hashlib
import random

import pytest

from detksat.formula import (
    DimacsError,
    Node,
    VerificationError,
    brute_force_sat,
    byte_tables,
    clause,
    formula,
    hamming,
    parse_dimacs,
    propagate,
    restrict,
    satisfies,
    serialize_dimacs,
    solve_2sat,
    verify_model,
)
from detksat.generator import gen_random_kcnf


def lits(f):
    return [c.lits for c in f.clauses]


def up(f):
    """The formula unit propagation leaves of f."""
    return propagate(Node.of(f), {})[0].formula()


class TestParse:
    def test_minimal(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0")
        assert f.n == 3
        assert lits(f) == [(1, 2, 3)]

    def test_duplicate_literal_dropped(self):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0")
        assert lits(f) == [(1, 2)]

    def test_tautology_rejected(self):
        with pytest.raises(DimacsError, match="line 2.*tautological"):
            parse_dimacs("p cnf 2 1\n1 -1 0")

    def test_comments_and_multiline(self):
        f = parse_dimacs("c hi\np cnf 4 2\n1 2\n3 0 -2 4 0")
        assert lits(f) == [(1, 2, 3), (-2, 4)]

    def test_bad_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 3 1\n1 0")

    def test_out_of_range_variable(self):
        with pytest.raises(DimacsError, match="exceeds"):
            parse_dimacs("p cnf 2 1\n3 0")

    def test_unterminated(self):
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares"):
            parse_dimacs("p cnf 2 2\n1 0")

    def test_satlib_trailer(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n%\n0\n\n")
        assert f.n == 3 and lits(f) == [(1, -2), (3,)]

    def test_trailer_keeps_checks(self):
        with pytest.raises(DimacsError, match="declares"):
            parse_dimacs("p cnf 3 2\n1 -2 0\n%\n3 0\n")
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 3 1\n1 -2\n%\n0\n")

    def test_roundtrip(self):
        for seed in range(25):
            f = gen_random_kcnf(3, 9, 30, seed)
            g = parse_dimacs(serialize_dimacs(f))
            assert g.n == f.n and lits(g) == lits(f)


class TestRestrict:
    def test_satisfied_removed(self):
        f = formula(3, [(1, 2, 3)])
        assert restrict(f, {1: 1}).clauses == ()

    def test_falsified_becomes_bottom(self):
        f = formula(2, [(1, 2)])
        g = restrict(f, {1: 0, 2: 0})
        assert g.has_bottom

    def test_literal_elimination(self):
        f = formula(3, [(1, 2, 3)])
        g = restrict(f, {1: 0})
        assert lits(g) == [(2, 3)]

    def test_restriction_preserves_satisfiability(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(4, 12)
            f = gen_random_kcnf(3, n, rng.randint(4, 4 * n), rng.randint(0, 10**6))
            alpha = {v: rng.randint(0, 1) for v in rng.sample(range(1, n + 1), rng.randint(1, n))}
            if brute_force_sat(restrict(f, alpha)) is not None:
                assert brute_force_sat(f) is not None


class TestVerifyModel:
    def test_accepts_model(self):
        verify_model(formula(3, [(1, -2), (3,)]), {1: 1, 3: 1})

    def test_names_falsified_clause(self):
        # unset variables read 0, so (-2 3) is the first falsified clause
        f = formula(3, [(1, -2), (2, 3), (-1,)])
        with pytest.raises(VerificationError, match="clause 2 "):
            verify_model(f, {1: 1})


class TestUnitPropagation:
    def test_two_step(self):
        f = formula(4, [(1,), (-1, 2), (-2, 3, 4)])
        assert lits(up(f)) == [(3, 4)]

    def test_conflict(self):
        f = formula(1, [(1,), (-1,)])
        assert up(f).has_bottom

    def test_fixpoint(self):
        f = formula(3, [(1, 2, 3)])
        assert lits(up(f)) == [(1, 2, 3)]

    def test_preserves_satisfiability(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(3, 12)
            f = gen_random_kcnf(3, n, rng.randint(2, 5 * n), rng.randint(0, 10**6))
            # sprinkle a unit to make propagation bite
            if rng.random() < 0.7 and n >= 1:
                u = rng.randint(1, n) * rng.choice((1, -1))
                f = formula(n, [c.lits for c in f.clauses] + [(u,)])
            a = brute_force_sat(f)
            b = brute_force_sat(up(f))
            assert (a is None) == (b is None)


class TestNode:
    def test_width_guard(self):
        with pytest.raises(ValueError, match="a node holds clauses of width <= 3"):
            Node.of(formula(4, [(1, 2, 3, 4)]))


def _two_cnfs(count, seed):
    """Seeded 1/2-CNFs over n = 0..12 variables, some of them unused, with
    unit clauses, empty formulas and UNSAT cases."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 12)
        used = rng.sample(range(1, n + 1), rng.randint(0, n))
        cls = []
        for _ in range(rng.randint(0, 3 * len(used))):
            vs = rng.sample(used, min(len(used), rng.choice((1, 2, 2, 2))))
            cls.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        yield formula(n, cls)


# digest of the models solve_2sat chose for _two_cnfs(400, 29): 299 SAT,
# 101 UNSAT
TWO_SAT_MODELS_SHA256 = "96aac10f8968894378d6458638b75683613c3195bf936d38c4a3b370b34beb0d"


class TestTwoSat:
    def test_classic_contradiction(self):
        f = formula(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
        assert solve_2sat(f) is None

    def test_unit_like(self):
        f = formula(1, [(1,)])
        assert solve_2sat(f) == {1: 1}

    def test_empty_formula_all_zero(self):
        f = formula(3, [])
        assert solve_2sat(f) == {1: 0, 2: 0, 3: 0}

    def test_three_clause_rejected(self):
        with pytest.raises(ValueError):
            solve_2sat(formula(3, [(1, 2, 3)]))

    def test_agrees_with_brute_force(self):
        rng = random.Random(3)
        checked = 0
        while checked < 1000:
            n = rng.randint(2, 10)
            f = gen_random_kcnf(2, n, rng.randint(1, 4 * n), rng.randint(0, 10**7))
            got = solve_2sat(f)
            want = brute_force_sat(f)
            assert (got is None) == (want is None)
            if got is not None:
                assert satisfies(f, got)
            checked += 1

    def test_pinned_models(self):
        # which model is chosen, not only that it satisfies the formula: the
        # Tarjan order fixes the component ids and so every value
        h = hashlib.sha256()
        unsat = 0
        for f in _two_cnfs(400, 29):
            m = solve_2sat(f)
            unsat += m is None
            h.update(repr(None if m is None else sorted(m.items())).encode())
        assert unsat == 101
        assert h.hexdigest() == TWO_SAT_MODELS_SHA256


class TestByteTables:
    def test_match_bit_loop(self):
        rng = random.Random(5)
        for nbits in range(0, 20):
            pairs = [(rng.getrandbits(12), rng.getrandbits(12)) for _ in range(nbits)]
            tables = byte_tables(pairs)
            assert len(tables) == -(-nbits // 8)
            assert all(len(t) == 256 for t in tables)
            for _ in range(30):
                # bits past the pairs, up to the byte boundary, add nothing
                word = rng.getrandbits(8 * len(tables)) if tables else 0
                got, rest = 0, word
                for table in tables:
                    got |= table[rest & 255]
                    rest >>= 8
                want = 0
                for i, (off, on) in enumerate(pairs):
                    want |= on if word >> i & 1 else off
                assert got == want

    def test_sat_tables_match_lit_masks(self):
        rng = random.Random(11)
        for _ in range(60):
            f = gen_random_kcnf(rng.randint(1, 4), rng.randint(4, 19), rng.randint(0, 40), rng.randint(0, 10**6))
            masks = f.lit_masks
            for _ in range(10):
                word = rng.getrandbits(f.n)
                got, rest = 0, word
                for table in f.byte_sat_tables:
                    got |= table[rest & 255]
                    rest >>= 8
                want = 0
                for v in range(1, f.n + 1):
                    want |= masks[v if word >> (v - 1) & 1 else -v]
                assert got == want
                assert got == sum(1 << i for i, c in enumerate(f.clauses)
                                  if any((word >> (abs(l) - 1) & 1) == (l > 0) for l in c.lits))


class TestBruteForce:
    def test_lexicographic_first(self):
        f = formula(3, [(1, 2, 3)])
        assert brute_force_sat(f) == {1: 0, 2: 0, 3: 1}

    def test_complete_contradiction(self):
        pats = [(s1 * 1, s2 * 2, s3 * 3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        f = formula(3, pats)
        assert brute_force_sat(f) is None

    def test_empty(self):
        f = formula(4, [])
        assert brute_force_sat(f) == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_sat(formula(31, []))


class TestHamming:
    def test_identity_symmetry_triangle(self):
        rng = random.Random(5)
        for _ in range(300):
            w = rng.randint(1, 24)
            a, b, c = (rng.getrandbits(w) for _ in range(3))
            assert (hamming(a, b) == 0) == (a == b)
            assert hamming(a, b) == hamming(b, a)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            clause((1, -1))
