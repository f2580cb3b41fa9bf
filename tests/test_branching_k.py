import random

import pytest

from detksat.branching_k import (
    SolveStats,
    br_k,
    greedy_maximal_1chains,
    solve_ksat,
)
from detksat.bounds import nu_k
from detksat.branching3 import PhiConfig
from detksat.formula import brute_force_sat, formula, restrict, satisfies
from detksat.generator import gen_random_kcnf


class TestGreedy:
    def test_overlap_skipped(self):
        f = formula(8, [(1, 2, 3), (3, 4, 5), (6, 7, 8)])
        inst = greedy_maximal_1chains(f)
        assert [c.clauses[0].lits for c in inst.chains] == [(1, 2, 3), (6, 7, 8)]

    def test_no_full_width_clauses(self):
        f = formula(4, [(1, 2), (3, 4)])
        assert f.width() == 2
        assert len(greedy_maximal_1chains(f)) == 2  # all width-2 clauses disjoint

    def test_all_disjoint_selected(self):
        f = formula(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
        assert len(greedy_maximal_1chains(f)) == 3

    def test_maximality(self):
        rng = random.Random(13)
        for _ in range(30):
            f = gen_random_kcnf(4, 12, 20, rng.randint(0, 10**6))
            inst = greedy_maximal_1chains(f)
            used = inst.variables()
            # restricting all chain variables leaves no 4-clause
            alpha = {v: 0 for v in used}
            assert restrict(f, alpha).width() <= 3


class TestConfig:
    def test_nu4(self):
        assert abs(nu_k(4) - 0.07683) < 5e-5
        assert 0 < nu_k(4) < 0.25


class TestBrK:
    def test_single_clause_returns_instance(self):
        f = formula(4, [(1, 2, 3, 4)])
        assert len(greedy_maximal_1chains(f)) == 1
        assert 1 >= nu_k(4) * f.n  # 0.307...
        out = br_k(f)
        assert out.verdict == "INSTANCE"
        assert len(out.instance) == 1

    def test_branch_path_when_below_threshold(self):
        # single maximal chain but n large enough that 1 < nu*n
        cls = [(1, 2, 3, 4)] + [(1, i, i + 1, i + 2) for i in range(5, 12, 3)]
        f = formula(14, cls)
        assert nu_k(4) * f.n > 1
        inst = greedy_maximal_1chains(f)
        assert len(inst) == 1
        out = br_k(f)
        assert out.verdict == "SAT"
        assert satisfies(f, out.assignment)

    def test_sub_solves_get_phi_config_and_trace(self, monkeypatch):
        import detksat.branching_k as branching_k

        # br_k branches on (1, 2, 3, 4); with variable 1 false the rest is a 3-CNF
        cls = [(1, 2, 3, 4)] + [(1, i, i + 1, i + 2) for i in range(5, 12, 3)]
        f = formula(14, cls)
        seen = []
        br_3 = branching_k.br_3

        def spy(g, cfg=None, trace=None, stats=None):
            seen.append((cfg, trace))
            return br_3(g, cfg, trace, stats)

        monkeypatch.setattr(branching_k, "br_3", spy)
        phi, lines = PhiConfig(c=1.05), []
        trace = lines.append
        res = solve_ksat(f, phi_cfg=phi, trace=trace)
        assert res.verdict == "SAT" and satisfies(f, res.assignment)
        assert seen and all(cfg is phi and t is trace for cfg, t in seen)

    def test_unsat_small(self):
        # all 16 sign patterns over 4 variables
        pats = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    for s4 in (1, -1):
                        pats.append((s1 * 1, s2 * 2, s3 * 3, s4 * 4))
        f = formula(14, pats)  # n large so the branch path runs
        out = br_k(f)
        assert out.verdict == "UNSAT"

    def test_empty_formula(self):
        f = formula(4, [])
        res = solve_ksat(f)
        assert res.verdict == "SAT"
        assert res.assignment == {1: 0, 2: 0, 3: 0, 4: 0}


class TestSolveKsat:
    def test_2cnf_dispatch(self):
        f = formula(2, [(1, 2), (-1, 2)])
        res = solve_ksat(f)
        assert res.verdict == "SAT"
        assert satisfies(f, res.assignment)

    @pytest.mark.parametrize("k,densities", [(3, (2.0, 4.26, 6.0)), (4, (4.0, 9.9, 14.0)), (5, (8.0, 21.0, 30.0))])
    def test_oracle_agreement(self, k, densities):
        rng = random.Random(k)
        for dens in densities:
            for _ in range(12):
                n = rng.randint(max(k, 6), 12)
                m = max(1, round(n * dens))
                f = gen_random_kcnf(k, n, m, rng.randint(0, 10**7))
                res = solve_ksat(f)
                want = brute_force_sat(f)
                assert res.verdict == ("SAT" if want is not None else "UNSAT")
                if res.assignment is not None:
                    assert satisfies(f, res.assignment)

    def test_paths_exercised(self):
        seen = set()
        for seed in range(25):
            f = gen_random_kcnf(3, 12, 51, seed)
            st = SolveStats()
            solve_ksat(f, phi_cfg=PhiConfig(c=1.05), stats=st)
            seen.add(st.path)
        assert "DLS" in seen and "BR-solved" in seen

    def test_mixed_width_agreement(self):
        # inputs may hold 1- and 2-clauses next to 3-clauses; those are
        # simplified, never branched
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(4, 12)
            cls = [c.lits for c in gen_random_kcnf(3, n, rng.randint(2, 4 * n), rng.randint(0, 10**6)).clauses]
            for _ in range(rng.randint(0, n)):
                a, b = rng.sample(range(1, n + 1), 2)
                cls.append((a * rng.choice((1, -1)), b * rng.choice((1, -1))))
            for _ in range(rng.randint(0, 2)):
                v = rng.randint(1, n)
                cls.append((v * rng.choice((1, -1)),))
            f = formula(n, cls)
            res = solve_ksat(f)
            want = brute_force_sat(f)
            assert res.verdict == ("SAT" if want is not None else "UNSAT")
            if res.assignment is not None:
                assert satisfies(f, res.assignment)

    def test_pigeonhole_unsat(self):
        # 4 pigeons, 3 holes: pigeon clauses are 3-clauses, hole conflicts
        # are 2-clauses; unsatisfiable
        def pv(i, h):
            return 3 * i + h + 1  # pigeon i in hole h

        cls = [(pv(i, 0), pv(i, 1), pv(i, 2)) for i in range(4)]
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    cls.append((-pv(i, h), -pv(j, h)))
        f = formula(12, cls)
        assert brute_force_sat(f) is None
        for cfg in (None, PhiConfig(c=1.05)):
            assert solve_ksat(f, phi_cfg=cfg).verdict == "UNSAT"

    def test_branch_partition_covers_sat_set(self):
        # the union over chain patterns of the restrictions' satisfying
        # assignments equals the satisfying assignments of f
        from itertools import product as iproduct

        from detksat.branching_k import _patterns

        rng = random.Random(19)
        for _ in range(10):
            f = gen_random_kcnf(4, 9, rng.randint(8, 30), rng.randint(0, 10**6))
            inst = greedy_maximal_1chains(f)
            if not inst.chains:
                continue
            want = self._all_sat(f)
            got = set()
            for combo in iproduct(*[_patterns(4) for _ in inst.chains]):
                alpha = {}
                for chain, pat in zip(inst.chains, combo):
                    for lit, bit in zip(chain.clauses[0].lits, pat):
                        alpha[abs(lit)] = bit if lit > 0 else 1 - bit
                for sub in self._all_sat(restrict(f, alpha), skip=set(alpha)):
                    merged = dict(sub)
                    merged.update(alpha)
                    got.add(tuple(merged[v] for v in range(1, f.n + 1)))
            assert got == want

    @staticmethod
    def _all_sat(f, skip=frozenset()):
        out = set()
        free = [v for v in range(1, f.n + 1) if v not in skip]
        from itertools import product as iproduct

        for bits in iproduct((0, 1), repeat=len(free)):
            alpha = dict(zip(free, bits))
            for v in skip:
                alpha[v] = 0
            if satisfies(f, alpha):
                if skip:
                    out.add(frozenset((v, alpha[v]) for v in free))
                else:
                    out.add(tuple(alpha[v] for v in range(1, f.n + 1)))
        if skip:
            return [dict(s) for s in out]
        return out


def _hub_cnf(rng, n, m):
    """A 4-CNF in which every clause holds variable 1 or 2 and the first
    holds both, so its maximal set of disjoint clauses is that one clause."""
    cls = []
    for i in range(m):
        hubs = [1, 2] if i == 0 else [rng.choice((1, 2))]
        rest = rng.sample(range(3, n + 1), 4 - len(hubs))
        cls.append(tuple(v * rng.choice((1, -1)) for v in hubs + rest))
    return formula(n, cls)


class TestHandoff:
    def test_branch_then_br3_then_dls_match_oracle(self):
        # n >= 14 puts one disjoint clause below nu_4 * n, so br_k branches
        # and its 3-CNF sub-solves go to br_3, some of them on to the DLS
        rng = random.Random(3)
        branched = handed = 0
        for _ in range(40):
            n = rng.randint(14, 18)
            f = _hub_cnf(rng, n, rng.randint(n // 3, n))
            want = brute_force_sat(f)
            for cfg in (None, PhiConfig(c=1.05)):
                st = SolveStats()
                res = solve_ksat(f, cfg, st)
                assert res.verdict == ("SAT" if want is not None else "UNSAT")
                if res.assignment is not None:
                    assert satisfies(f, res.assignment)
                branched += st.branch_nodes > 0
                handed += st.dls.balls_searched > 0
        assert branched == 80 and handed > 0


class TestAnswerCheck:
    # one formula per solver that can give the answer: 2-SAT, the 3-SAT
    # branching, the width-k branching (its sub-solves are 3-CNFs) and the
    # local search
    CASES = {
        "2SAT": formula(2, [(1, 2), (-1, 2)]),
        "BR-solved": formula(3, [(1, 2, 3), (-1, -2, 3)]),
        "br_k": formula(14, [(1, 2, 3, 4)] + [(1, i, i + 1, i + 2) for i in range(5, 12, 3)]),
        "DLS": formula(4, [(1, 2, 3, 4)]),
    }

    @staticmethod
    def _patch(monkeypatch, check):
        import detksat.branching3 as branching3
        import detksat.branching_k as branching_k
        import detksat.local_search as local_search

        for mod in (branching_k, branching3, local_search):
            monkeypatch.setattr(mod, "verify_model", check)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_path_checks_its_answer(self, monkeypatch, name):
        # a check that refuses every model of the input formula (sub-solves'
        # models of restricted formulas pass) stops each path's answer
        from detksat.formula import VerificationError

        f = self.CASES[name]

        def refuse(g, alpha):
            if g is f:
                raise VerificationError("refused")

        self._patch(monkeypatch, refuse)
        with pytest.raises(VerificationError):
            solve_ksat(f)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_check_per_answer(self, monkeypatch, name):
        f = self.CASES[name]
        checked = []
        self._patch(monkeypatch, lambda g, alpha: checked.append(g is f))
        st = SolveStats()
        res = solve_ksat(f, stats=st)
        assert res.verdict == "SAT" and satisfies(f, res.assignment)
        assert checked.count(True) == 1
        assert (st.branch_nodes > 0) == (name == "br_k")
        assert (st.path == "DLS") == (name == "DLS")
