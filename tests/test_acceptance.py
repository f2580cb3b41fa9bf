"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import math
import time
from fractions import Fraction

from detksat.bounds import balance_check, c3, ck_recurrence, degeneration_check, round_up
from detksat import characteristic
from detksat.branching3 import Br3Stats, PhiConfig, br_3, member, procedure_p_tracked, tb_set
from detksat.branching_k import solve_ksat
from detksat.chains import build_chain, canonical_realization, solution_space
from detksat.characteristic import (
    F1,
    closed_form_1chain,
    reproduce_table2,
    solve_characteristic,
)
from detksat.covering import (
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
    cover_cube,
    ell_cover_spaces,
    ell_for,
    verify_coverage,
)
from detksat.formula import Node, brute_force_sat, clause, satisfies
from detksat.generator import gen_random_kcnf
from detksat.table_data import REFERENCE_CHAIN_TYPES


def _line(num, ok, detail=""):
    print("ACCEPTANCE %2d: %s%s" % (num, "PASS" if ok else "FAIL", " - " + detail if detail else ""))


def test_criterion_01_characteristic_values_exact():
    characteristic._LAMBDA_CACHE.clear()  # time a cold table
    t0 = time.time()
    try:
        records = reproduce_table2()
        assert len(records) == 38
        by_zeta = {r.zeta: r for r in records}
        for want in ("3/7", "27/110", "81/331", "15/46", "243/5264", "45/553", "243/6920"):
            assert any(r.lam == Fraction(want) for r in records), want
        for _i, z, _r2, lam, _f in REFERENCE_CHAIN_TYPES:
            assert by_zeta[z].lam == Fraction(lam)
        elapsed = time.time() - t0
        assert elapsed < 60, "took %.1f s" % elapsed
    except Exception:
        _line(1, False)
        raise
    _line(1, True, "38/38 lambda values exact in %.1f s" % elapsed)


def test_criterion_02_closed_form_vs_lp():
    try:
        for k in (3, 4, 5, 6):
            cf = closed_form_1chain(k)
            ch = build_chain([clause(tuple(range(1, k + 1)))], k)
            lp = solve_characteristic(solution_space(ch), k)
            assert cf.lam == lp.lam and cf.pi == lp.pi, k
        assert closed_form_1chain(4).lam == Fraction(1, 5)
    except Exception:
        _line(2, False)
        raise
    _line(2, True, "exact rational equality for k in {3,4,5,6}")


def test_criterion_03_f_table():
    try:
        records = reproduce_table2()
        by_id = {r.type_id: r for r in records}
        for type_id, _z, _r2, _lam, prefix in REFERENCE_CHAIN_TYPES:
            assert ("%.10f" % by_id[type_id].f).startswith(prefix), type_id
        assert max(records, key=lambda r: r.f).type_id == 1
        # printed-prefix semantics: the table truncates, so one unit in the
        # fifth decimal is the attainable tolerance
        assert abs(F1 - 0.98586) < 1e-5
    except Exception:
        _line(3, False)
        raise
    _line(3, True, "every printed digit prefix matches; argmax f = type 1")


def test_criterion_04_bounds_table_and_balance():
    try:
        rows = {r.k: r for r in ck_recurrence(6)}
        assert round_up(rows[3].ck) == 1.32793
        assert round_up(rows[4].ck) == 1.49857
        assert round_up(rows[5].ck) == 1.59946
        assert round_up(rows[6].ck) == 1.66646
        worst = 0.0
        for k in (3, 4, 5, 6):
            rep = balance_check(k)
            assert rep.ok, rep
            worst = max(worst, rep.rel_err)
    except Exception:
        _line(4, False)
        raise
    _line(4, True, "c_k table to 5 decimals; max balance residual %.1e" % worst)


def test_criterion_05_degeneration():
    try:
        rep = degeneration_check()
        assert rep.positive_base >= 1.328 and rep.positive_base > rep.c3_value
        assert rep.two_negative_base >= 1.328 and rep.two_negative_base > rep.c3_value
    except Exception:
        _line(5, False)
        raise
    _line(
        5,
        True,
        "degenerate bases %.6f / %.6f both >= 1.328 and > c3=%.6f"
        % (rep.positive_base, rep.two_negative_base, rep.c3_value),
    )


def test_criterion_06_coverage_soundness():
    try:
        assert ell_for(2, 3, Fraction(3, 7)) == 4
        checked = 0
        for width, radius in ((1, 0), (4, 2), (5, 1), (6, 2), (8, 3), (10, 3), (12, 4)):
            fam = cover_cube(width, radius)
            rep = verify_coverage(fam, StructuredSpace((CubeFactor(width),)))
            assert rep.ok and not rep.sampled, (width, radius)
            checked += 1
        from detksat.characteristic import lambda_for_zeta

        for z, nu in (("*", 1), ("*", 2), ("n*", 1), ("n*", 2), ("t*", 1), ("t*", 2)):
            sp = solution_space(canonical_realization(z))
            fam = ell_cover_spaces((sp,) * nu, 3, lambda_for_zeta(z))
            rep = verify_coverage(fam, StructuredSpace((PowerFactor((sp,) * nu),)))
            assert rep.ok and not rep.sampled, (z, nu)
            checked += 1
        combos = [
            (4, ("*",)),
            (6, ("n*",)),
            (0, ("*", "n*")),
            (5, ("t*", "*")),
        ]
        for n0, zs in combos:
            factors = ([CubeFactor(n0)] if n0 else []) + [
                PowerFactor((solution_space(canonical_realization(z)),)) for z in zs
            ]
            space = StructuredSpace(tuple(factors))
            assert space.width <= 20
            fam = build_generalized_code(space, [lambda_for_zeta(z) for z in zs], 3)
            rep = verify_coverage(fam, space)
            assert rep.ok and not rep.sampled, (n0, zs)
            checked += 1
    except Exception:
        _line(6, False)
        raise
    _line(6, True, "%d families exhaustively verified; ell(nu=2,k=3)=4" % checked)


def test_criterion_07_oracle_equivalence_end_to_end():
    t0 = time.time()
    densities = {3: (2.0, 4.26, 6.0), 4: (4.0, 9.9, 14.0), 5: (8.0, 21.0, 30.0)}
    try:
        total = {}
        for k in (3, 4, 5):
            count = 0
            for n in (8, 10, 12, 14):
                if n < k + 1:
                    continue
                for dens in densities[k]:
                    m = max(1, round(n * dens))
                    for seed in range(30 if k == 3 else 42):
                        f = gen_random_kcnf(k, n, m, 10_000 * n + seed)
                        res = solve_ksat(f)
                        want = brute_force_sat(f)
                        assert res.verdict == ("SAT" if want is not None else "UNSAT"), (
                            k, n, m, seed,
                        )
                        if res.verdict == "SAT":
                            assert satisfies(f, res.assignment)
                        count += 1
            # a second batch under a small termination base exercises the
            # local-search path at these sizes (3-CNF only)
            if k == 3:
                for n in (10, 12, 14):
                    for dens in densities[k]:
                        m = max(1, round(n * dens))
                        for seed in range(20):
                            f = gen_random_kcnf(k, n, m, 77_000 + 100 * n + seed)
                            res = solve_ksat(f, phi_cfg=PhiConfig(c=1.05))
                            want = brute_force_sat(f)
                            assert res.verdict == (
                                "SAT" if want is not None else "UNSAT"
                            )
                            if res.verdict == "SAT":
                                assert satisfies(f, res.assignment)
                            count += 1
            assert count >= 500, (k, count)
            total[k] = count
    except Exception:
        _line(7, False)
        raise
    _line(
        7,
        True,
        "verdicts match the oracle on %s instances in %.0f s"
        % ("/".join("k=%d:%d" % (k, v) for k, v in total.items()), time.time() - t0),
    )


def test_criterion_08_simplification_rules():
    try:
        import random

        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            n = rng.randint(4, 12)
            f = gen_random_kcnf(3, n, rng.randint(4, 5 * n), rng.randint(0, 10**7))
            g = procedure_p_tracked(Node.of(f))[0]
            assert (brute_force_sat(f) is None) == (brute_force_sat(g.formula()) is None)
            if not g.has_bottom:
                for c in g.formula().clauses:
                    if c.width != 2:
                        continue
                    l1, l2 = c.lits
                    for a, b in ((l1, l2), (l2, l1)):
                        tb = tb_set(g, a)
                        if not tb.conflict:
                            assert tb.src, (c.lits, a)
                            assert all(b not in member(g, tb, s).lits for s in tb.src)
            checked += 1
    except Exception:
        _line(8, False)
        raise
    _line(8, True, "%d formulas: verdict preserved, postcondition holds" % checked)


def test_criterion_09_branch_accounting():
    try:
        events = 0
        for cval in (1.05, 1.2):
            for n, m in ((10, 43), (12, 51), (13, 55), (14, 60)):
                for seed in range(20):
                    f = gen_random_kcnf(3, n, m, seed)
                    st = Br3Stats()
                    br_3(f, PhiConfig(c=cval), stats=st)
                    for ev in st.phi_events:
                        events += 1
                        assert ev.leaves_before <= ev.path_product, (
                            cval, n, seed, ev.leaves_before, float(ev.path_product),
                        )
                    for z, _r2 in st.closed_zetas:
                        assert "tp" not in z and "tt" not in z
        assert events >= 20, events
    except Exception:
        _line(9, False)
        raise
    _line(9, True, "leaf counts bounded by the branch-number product at %d stops" % events)


def test_criterion_10_constants_stand_in_for_asymptotics():
    # the asymptotic runtimes are not observable at this scale; criteria 1-9
    # pin every constant that determines the claimed exponents
    try:
        assert round_up(c3()) == 1.32793
        assert abs(math.log2(c3()) - nu_log3()) < 1e-12
    except Exception:
        _line(10, False)
        raise
    _line(10, True, "exponent constants fixed by criteria 1-9 (no runtime claim)")


def nu_log3():
    return (math.log2(4 / 3) / math.log2(64 / 21)) * math.log2(3)
