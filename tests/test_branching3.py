import hashlib
import importlib
import random
from functools import cached_property
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detksat import branching3, branching_k
from detksat.branching3 import (
    BUNDLE_PATTERNS,
    Br3Stats,
    PhiConfig,
    br_3,
    condition_phi,
    member,
    procedure_p_tracked,
    rule_upsilon,
    tb_set,
)
from detksat.chains import ChainVector, zeta
from detksat.characteristic import forced_termination, lambda_for_zeta
from detksat.formula import (
    Clause,
    Formula,
    Node,
    bit_indices,
    brute_force_sat,
    formula,
    propagate,
    restrict,
    satisfies,
)
from detksat.branching_k import solve_ksat
from detksat.generator import gen_random_kcnf

# the package attribute ``detksat.formula`` is the function of that name
formula_module = importlib.import_module("detksat.formula")


def lits(f):
    return [c.lits for c in f.clauses]


class TestTbSet:
    def test_direct(self):
        f = Node.of(formula(7, [(1, 2), (-1, 3, 4), (5, 6, 7)]))
        tb = tb_set(f, 1)
        assert not tb.conflict
        assert [member(f, tb, s).lits for s in tb.src] == [(3, 4)]
        assert f.clauses[tb.src[0]].lits == (-1, 3, 4)
        assert tb.src == (1,)
        assert tb.fixes == {1: 1}

    def test_autark_case(self):
        f = Node.of(formula(4, [(1, 2), (-1, 3, 4)]))
        tb = tb_set(f, 2)
        assert not tb.conflict and tb.src == ()
        assert lits(propagate(f, tb.fixes)[0].formula()) == [(-1, 3, 4)]

    def test_conflict_flag(self):
        f = Node.of(formula(2, [(1,), (-1,)]))
        tb = tb_set(f, 2)
        assert tb.conflict and tb.src == ()


class TestProcedureP:
    def test_autark_simplification(self):
        f = formula(4, [(1, 2), (-1, 3, 4)])
        assert lits(procedure_p_tracked(Node.of(f))[0].formula()) == [(-1, 3, 4)]

    def test_autark_priority_over_replacement(self):
        # x2=1 satisfies both clauses, so the autark case fires and wipes
        # the formula entirely
        f = formula(3, [(1, 2), (-1, 2, 3)])
        assert procedure_p_tracked(Node.of(f))[0].formula().clauses == ()

    def test_replacement_when_no_autark(self):
        # neither literal of (x1 v x2) is autark at first; propagating x1=1
        # turns (-1 2 3) into (2 3), which contains x2, so the 3-clause is
        # replaced -- which then unlocks autarks for x1 and x3
        f = formula(5, [(1, 2), (-1, 2, 3), (-2, 4, 5), (-3, 1, 4)])
        g, fixes = procedure_p_tracked(Node.of(f))
        assert lits(g.formula()) == [(-2, 4, 5)]
        assert fixes == {1: 1, 3: 1}
        assert (brute_force_sat(f) is None) == (brute_force_sat(g.formula()) is None)

    def test_replacement_member_from_second_probe(self):
        # propagating x1=1 derives only (4 5); propagating x2=1 derives
        # (1 3) from (-2 1 3), which contains x1 and replaces that clause
        f = formula(7, [(1, 2), (-1, 4, 5), (-2, 1, 3), (-3, 6, 7), (-4, -5, 6)])
        g, fixes = procedure_p_tracked(Node.of(f))
        assert _at(g) == [(1, (-1, 4, 5)), (2, (1, 3)), (3, (-3, 6, 7)), (4, (-4, -5, 6))]
        assert fixes == {2: 1}

    def test_no_replacement_by_a_fixed_other_literal(self):
        # propagating x1=1 also fixes x2=0, so the member (3 4) of (2 3 4)
        # no longer contains x2 and nothing is replaced
        f = Node.of(formula(6, [(1, 2), (-1, -2), (2, 3, 4), (-2, 5, 6)]))
        g, fixes = procedure_p_tracked(f)
        assert g == f and fixes == {}

    def test_fixpoint_input(self):
        f = formula(8, [(1, 2), (-1, 3, 4), (-2, 5, 6), (-3, 7, 8)])
        g = procedure_p_tracked(Node.of(f))[0]
        assert lits(g.formula()) == lits(procedure_p_tracked(g)[0].formula())

    def test_preserves_satisfiability_and_postcondition(self):
        rng = random.Random(31)
        checked = 0
        while checked < 1000:
            n = rng.randint(4, 12)
            f = gen_random_kcnf(3, n, rng.randint(4, 5 * n), rng.randint(0, 10**7))
            g = procedure_p_tracked(Node.of(f))[0]
            assert (brute_force_sat(f) is None) == (brute_force_sat(g.formula()) is None)
            if not g.has_bottom:
                self._assert_postcondition(g)
            checked += 1

    @staticmethod
    def _assert_postcondition(g):
        # after the fixpoint: for every 2-clause (l1 v l2), propagating
        # either literal yields no 2-clause containing the other, and the
        # member set is nonempty unless the propagation conflicts
        for c in g.formula().clauses:
            if c.width != 2:
                continue
            l1, l2 = c.lits
            for a, b in ((l1, l2), (l2, l1)):
                tb = tb_set(g, a)
                if tb.conflict:
                    continue
                assert tb.src, (c, a)
                assert all(b not in member(g, tb, s).lits for s in tb.src)


class TestRuleUpsilon:
    def test_seeded_selection(self):
        f = Node.of(formula(7, [(1, 2), (-1, 3, 4), (-3, 5, 6)]))
        got, s = rule_upsilon(((f, tb_set(f, 1)),), {1, 2})
        assert got.lits == (3, 4)
        assert s == 1

    def test_root_needs_fresh(self):
        assert rule_upsilon((), set()) is None

    def test_viability_skips_assigned_members(self):
        # the first member's variables are burned by the branch; the next
        # viable member is returned instead
        f = Node.of(formula(8, [(1, 2), (-1, 2, 3), (-1, 4, 5)]))
        got, s = rule_upsilon(((f, tb_set(f, 1)),), {1, 2})
        assert got.lits == (4, 5)
        assert s == 2


class TestConditionPhi:
    def test_26_chains_trigger(self):
        vec = ChainVector({("*", False): 26})
        assert condition_phi(vec, 100, PhiConfig())

    def test_25_chains_do_not(self):
        vec = ChainVector({("*", False): 25})
        assert not condition_phi(vec, 100, PhiConfig())

    def test_empty_vector(self):
        assert not condition_phi(ChainVector({}), 1, PhiConfig())


class TestBundle:
    def test_patterns_are_exactly_joint_satisfying_set(self):
        got = set(BUNDLE_PATTERNS)
        want = {
            (u, w, l3)
            for u, w, l3 in product((0, 1), repeat=3)
            if (u or w) and ((1 - u) or (1 - w) or l3)
        }
        assert got == want

    def test_two_negative_run_is_sound(self):
        # formula forcing a two-negative continuation; verified vs oracle
        f = formula(
            9,
            [
                (1, 2),
                (-1, -2, 3),
                (-1, 4, 5),
                (-2, 6, 7),
                (-3, 8, 9),
            ],
        )
        st = Br3Stats()
        out = br_3(f, PhiConfig(c=1e9), stats=st)
        assert out.verdict == "SAT"
        assert satisfies(f, out.assignment)


class TestBr3:
    def test_oracle_agreement_phi_disabled(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(5, 12)
            f = gen_random_kcnf(3, n, rng.randint(4, round(5.5 * n)), rng.randint(0, 10**7))
            out = br_3(f, PhiConfig(c=1e9))
            want = brute_force_sat(f)
            assert (out.verdict == "SAT") == (want is not None)
            if out.verdict == "SAT":
                assert satisfies(f, out.assignment)

    def test_unsat_contradiction(self):
        pats = [(s1 * 1, s2 * 2, s3 * 3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        f = formula(3, pats)
        assert br_3(f, PhiConfig(c=1e9)).verdict == "UNSAT"

    def test_phi_trigger_yields_valid_instance(self):
        triggered = 0
        for seed in range(30):
            f = gen_random_kcnf(3, 12, 51, seed)
            st = Br3Stats()
            out = br_3(f, PhiConfig(c=1.05), stats=st)
            if out.verdict == "INSTANCE":
                triggered += 1
                inst = out.instance
                # chains are variable-disjoint 3-CNF chains over formula clauses
                have = {frozenset(c.lits) for c in f.clauses}
                for ch in inst.chains:
                    for c in ch.clauses:
                        assert frozenset(c.lits) in have
                    assert "tp" not in zeta(ch.clauses) and "tt" not in zeta(ch.clauses)
        assert triggered >= 5

    def test_leaf_accounting_at_phi(self):
        for cval in (1.05, 1.2):
            for seed in range(25):
                f = gen_random_kcnf(3, 13, 55, seed)
                st = Br3Stats()
                br_3(f, PhiConfig(c=cval), stats=st)
                for ev in st.phi_events:
                    assert ev.leaves_before <= ev.path_product

    def test_no_tp_tt_in_closed_chains(self):
        for seed in range(40):
            f = gen_random_kcnf(3, 12, 50, seed)
            st = Br3Stats()
            br_3(f, PhiConfig(c=1e9), stats=st)
            for z, _ in st.closed_zetas:
                assert "tp" not in z and "tt" not in z

    def test_instance_matches_internal_bookkeeping(self):
        # the returned instance re-derives the chain split from the clause
        # sequence; it must agree with the chains the search accounted for
        from collections import Counter

        seen = 0
        for seed in range(25):
            f = gen_random_kcnf(3, 13, 55, seed)
            st = Br3Stats()
            out = br_3(f, PhiConfig(c=1.05), stats=st)
            if out.verdict != "INSTANCE":
                continue
            seen += 1
            ev = st.phi_events[-1]
            assert len(out.instance.chains) == ev.chain_count
            got = Counter(zeta(ch.clauses) for ch in out.instance.chains)
            # closed chains on the final path plus the open chain; the
            # closed list also holds chains from abandoned branches, so
            # compare against the tail of the accounting
            assert sum(got.values()) == ev.chain_count
        assert seen >= 5

    def test_trace_emission(self):
        # some instances collapse without a seeded selection; sweep a few
        lines = []
        for seed in (0, 1, 8, 9):
            f = gen_random_kcnf(3, 10, 43, seed)
            br_3(f, PhiConfig(c=1e9), trace=lines.append)
        assert lines
        assert all("depth=" in l and "phi_num=" in l for l in lines)

    def test_determinism(self):
        f = gen_random_kcnf(3, 12, 50, 77)
        a = br_3(f, PhiConfig(c=1e9))
        b = br_3(f, PhiConfig(c=1e9))
        assert a == b

    def test_width_guard(self):
        with pytest.raises(ValueError):
            br_3(formula(4, [(1, 2, 3, 4)]))


# The exact work of the branching on the instances the tests above solve: per
# seed, (verdict initial, nodes, leaves, splits, max_depth, closed chains, Phi
# events), plus one digest over every answer's verdict, assignment and
# instance, every Br3Stats field and every trace line. A change that only restructures the search keeps all of them.
PINNED_WORK = {
    (13, 55, 1.05): [
        ('u', 9, 6, 1, 2, 0, 0), ('u', 9, 6, 1, 2, 0, 0), ('s', 6, 4, 1, 2, 0, 0), ('i', 4, 1, 1, 2, 0, 1),
        ('i', 3, 0, 1, 2, 0, 1), ('s', 6, 4, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('i', 3, 0, 1, 2, 0, 1),
        ('i', 3, 0, 1, 2, 0, 1), ('s', 6, 4, 1, 2, 0, 0), ('i', 8, 4, 1, 2, 0, 1), ('i', 7, 3, 1, 2, 0, 1),
        ('u', 9, 6, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('i', 3, 0, 1, 2, 0, 1), ('i', 5, 2, 1, 2, 0, 1),
        ('i', 3, 0, 1, 2, 0, 1), ('i', 7, 3, 1, 2, 0, 1), ('s', 2, 1, 1, 1, 0, 0), ('s', 6, 4, 1, 2, 0, 0),
        ('i', 8, 4, 1, 2, 0, 1), ('i', 3, 0, 1, 2, 0, 1), ('s', 2, 1, 1, 1, 0, 0), ('u', 9, 6, 1, 2, 0, 0),
        ('s', 2, 1, 1, 1, 0, 0),
    ],
    (13, 55, 1.2): [
        ('u', 9, 6, 1, 2, 0, 0), ('u', 9, 6, 1, 2, 0, 0), ('s', 6, 4, 1, 2, 0, 0), ('s', 9, 6, 1, 3, 0, 0),
        ('s', 3, 1, 1, 2, 0, 0), ('s', 6, 4, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 9, 6, 1, 3, 0, 0),
        ('s', 3, 1, 1, 2, 0, 0), ('s', 6, 4, 1, 2, 0, 0), ('u', 12, 8, 1, 3, 0, 0), ('u', 12, 8, 1, 3, 1, 0),
        ('u', 9, 6, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('u', 12, 8, 1, 3, 0, 0), ('s', 5, 3, 1, 2, 0, 0),
        ('s', 3, 1, 1, 2, 0, 0), ('s', 11, 7, 1, 3, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 6, 4, 1, 2, 0, 0),
        ('u', 12, 8, 1, 3, 1, 0), ('s', 3, 1, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('u', 9, 6, 1, 2, 0, 0),
        ('s', 2, 1, 1, 1, 0, 0),
    ],
    (12, 50, 1e9): [
        ('s', 2, 1, 1, 1, 0, 0), ('s', 9, 6, 1, 2, 0, 0), ('s', 3, 1, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0),
        ('u', 9, 6, 1, 2, 0, 0), ('s', 3, 1, 1, 2, 1, 0), ('u', 9, 6, 1, 2, 0, 0), ('u', 8, 7, 1, 2, 1, 0),
        ('s', 3, 1, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('u', 18, 12, 1, 3, 0, 0),
        ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 4, 2, 1, 2, 0, 0),
        ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 6, 4, 1, 2, 0, 0),
        ('s', 2, 1, 1, 1, 0, 0), ('s', 12, 8, 1, 3, 0, 0), ('s', 7, 4, 1, 2, 1, 0), ('s', 2, 1, 1, 1, 0, 0),
        ('u', 9, 6, 1, 2, 0, 0), ('s', 6, 4, 1, 2, 0, 0), ('s', 3, 1, 1, 2, 1, 0), ('s', 2, 1, 1, 1, 0, 0),
        ('u', 13, 10, 1, 3, 2, 0), ('s', 5, 1, 1, 2, 1, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 7, 4, 1, 2, 0, 0),
        ('u', 8, 7, 1, 2, 1, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('u', 9, 6, 1, 2, 0, 0),
        ('u', 9, 6, 1, 2, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('s', 2, 1, 1, 1, 0, 0), ('u', 9, 6, 1, 2, 0, 0),
    ],
}
PINNED_DIGEST = "6350b6acd26524a0912ebd30445ed3be238fd95ae85c850467a2ce352573cd7f"


class TestPinnedWork:
    def test_work_and_digest(self):
        h = hashlib.sha256()
        for (n, m, c), want in PINNED_WORK.items():
            got = []
            for seed in range(len(want)):
                st = Br3Stats()
                lines = []
                out = br_3(gen_random_kcnf(3, n, m, seed), PhiConfig(c=c), trace=lines.append, stats=st)
                got.append(
                    (out.verdict[0].lower(), st.nodes, st.leaves, st.splits, st.max_depth, len(st.closed_zetas), len(st.phi_events))
                )
                h.update(repr((out.verdict, out.assignment, out.instance, st, lines)).encode())
            assert got == want, (n, m, c)
        assert h.hexdigest() == PINNED_DIGEST


# ---------------------------------------------------------------------------
# Differential test: propagation over occurrence lists against a reference
# that rebuilds the clause list after each unit. The reference fixes the
# semantics: the lowest-index unit clause goes first, propagation stops at
# the first falsified clause, and clauses keep their input order.


def _ref_up(f, alpha):
    """Reference UP(f | alpha): (clauses, src, fixes, conflict) by rescanning."""
    fixes = dict(alpha)
    cls = []
    src = []
    for i, c in enumerate(f.clauses):
        if not any((fixes.get(abs(l)) == 1) == (l > 0) for l in c.lits if abs(l) in fixes):
            cls.append(Clause(tuple(l for l in c.lits if abs(l) not in fixes)))
            src.append(i)
    while not any(c.is_bottom for c in cls):
        unit = next((c for c in cls if c.width == 1), None)
        if unit is None:
            return cls, src, fixes, False
        (l,) = unit.lits
        fixes[abs(l)] = 1 if l > 0 else 0
        keep = [(c, s) for c, s in zip(cls, src) if l not in c.lits]
        cls = [Clause(tuple(x for x in c.lits if x != -l)) for c, _ in keep]
        src = [s for _, s in keep]
    return cls, src, fixes, True


def _ref_tb(f, lit):
    """Reference probe: (members, src, conflict, fixes)."""
    cls, src, fixes, conflict = _ref_up(f, {abs(lit): 1 if lit > 0 else 0})
    if conflict:
        return [], [], True, fixes
    pairs = [(c, s) for c, s in zip(cls, src) if c.width == 2 and f.clauses[s].width == 3]
    return [c for c, _ in pairs], [s for _, s in pairs], False, fixes


def _ref_procedure_p(f, scans=None):
    """Reference P, probing afresh at every scan: (formula, fixes, the index
    in f of each of its clauses); ``scans`` gets one list per scan of the
    literals probed in it."""
    cls, index, fixes, conflict = _ref_up(f, {})
    f = Formula(f.n, tuple(cls))
    while not conflict:
        if scans is not None:
            scans.append([])
        for c in f.clauses:
            if c.width != 2:
                continue
            l1, l2 = c.lits
            probes = []
            for lit in (l1, l2):
                if scans is not None:
                    scans[-1].append(lit)
                tb = _ref_tb(f, lit)
                if not tb[2] and not tb[0]:  # autark: commit it
                    cls, src, fx, _ = _ref_up(f, {abs(lit): 1 if lit > 0 else 0})
                    f = Formula(f.n, tuple(cls))
                    index = [index[s] for s in src]
                    fixes.update(fx)
                    break
                probes.append(tb)
            else:
                (m1, s1, c1, _), (m2, s2, c2, _) = probes
                rep = None if c1 else next(((m, s) for m, s in zip(m1, s1) if l2 in m.lits), None)
                if rep is None and not c2:
                    rep = next(((m, s) for m, s in zip(m2, s2) if l1 in m.lits), None)
                if rep is None:
                    continue
                new = list(f.clauses)
                new[rep[1]] = rep[0]
                f = Formula(f.n, tuple(new))
            break
        else:
            return f, fixes, index
        cls, src, fx, conflict = _ref_up(f, {})
        f = Formula(f.n, tuple(cls))
        index = [index[s] for s in src]
        fixes.update(fx)
    return f, fixes, index


def _shape(index, clauses):
    """Clauses as (root index, literals) pairs."""
    return [(i, c.lits) for i, c in zip(index, clauses, strict=True)]


def _at(node):
    """The node's unsatisfied clauses as (root index, literals) pairs."""
    return _shape(bit_indices(node.full & ~node.sat), node.formula().clauses)


@st.composite
def _cnf_and_alpha(draw):
    """Width <= 3 CNFs with units, bottoms, duplicate clauses and unused
    variables (n = 0 included), plus a partial assignment."""
    n = draw(st.integers(0, 7))
    var_sets = st.lists(st.integers(1, n), unique=True, max_size=min(3, n)) if n else st.just([])
    cls = [tuple(v if draw(st.booleans()) else -v for v in vs) for vs in draw(st.lists(var_sets, max_size=14))]
    if cls:
        for i in draw(st.lists(st.integers(0, len(cls) - 1), max_size=3)):
            cls.insert(draw(st.integers(0, len(cls))), cls[i])
    alpha = draw(st.dictionaries(st.integers(1, n), st.integers(0, 1), max_size=3)) if n else {}
    return formula(n, cls), alpha


class TestPropagationMatchesRescan:
    @settings(max_examples=400, deadline=None)
    @given(_cnf_and_alpha())
    def test_propagate(self, case):
        f, alpha = case
        node = Node.of(f)
        for a in (alpha, {}):
            got, got_fixes, got_conflict = propagate(node, a)
            cls, src, fixes, conflict = _ref_up(f, a)
            # at a node with a falsified clause, nothing is assigned
            assert got == (node if node.has_bottom else node.assign(got_fixes))
            assert _at(node.assign(got_fixes)) == _shape(src, cls)
            assert list(got_fixes.items()) == list(fixes.items())
            assert got_conflict == conflict

    @settings(max_examples=300, deadline=None)
    @given(_cnf_and_alpha())
    def test_tb_set_and_procedure_p(self, case):
        f, _ = case
        g, fixes = procedure_p_tracked(Node.of(f))
        rg, rfixes, rindex = _ref_procedure_p(f)
        assert _at(g) == _shape(rindex, rg.clauses)
        assert list(fixes.items()) == list(rfixes.items())
        for h in (Node.of(f), g):
            # the probes of the node against those of its formula, whose
            # clause j is the node's clause index[j]
            hf, index = h.formula(), list(bit_indices(h.full & ~h.sat))
            for lit in sorted({l for c in hf.clauses for l in c.lits}):
                tb = tb_set(h, lit)
                members, src, conflict, fx = _ref_tb(hf, lit)
                src = [index[s] for s in src]
                assert _shape(tb.src, [member(h, tb, s) for s in tb.src]) == _shape(src, members)
                assert list(tb.src) == src
                assert tb.conflict == conflict
                assert list(tb.fixes.items()) == list(fx.items())


@st.composite
def _node_walk(draw):
    """A CNF as above and a walk of up to eight steps at its node: each
    assigns one unassigned variable, or removes one literal from a clause
    with three free literals (a 3->2 replacement)."""
    f, _ = draw(_cnf_and_alpha())
    return f, draw(st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 99)), max_size=8))


def _walk(f, steps):
    """The node that a walk of ``_node_walk`` reaches from f, the same
    formula rebuilt step by step (each unsatisfied clause with its root
    literals less the removed and the false ones) and the root index of
    each of its clauses."""
    node = Node.of(f)
    rows = [(i, c.lits) for i, c in enumerate(f.clauses)]
    assigned = set()
    for assign, a, b in steps:
        free = [v for v in range(1, f.n + 1) if v not in assigned]
        wide = [(i, ls) for i, ls in rows if len(ls) == 3]
        if assign and free:
            v = free[a % len(free)]
            lit = v if b % 2 else -v
            node = node.assign({v: b % 2})
            assigned.add(v)
            rows = [(i, tuple(l for l in ls if l != -lit)) for i, ls in rows if lit not in ls]
        elif not assign and wide:
            i, ls = wide[a % len(wide)]
            node = node.remove(i, ls[b % 3])
            rows = [(j, tuple(l for l in ls2 if l != ls[b % 3]) if j == i else ls2) for j, ls2 in rows]
    g = Formula(f.n, tuple(Clause(ls) for _, ls in rows))
    return node, g, [i for i, _ in rows]


class TestNodeMatchesRebuiltFormula:
    @settings(max_examples=300, deadline=None)
    @given(_node_walk())
    def test_closure_probes_and_procedure_p(self, case):
        node, g, index = _walk(*case)
        f = node.root
        assert _at(node) == _shape(index, g.clauses)
        assert node.has_bottom == g.has_bottom
        # assigned variables too: at the node, as in g, they are in no clause
        for lit in sorted(l for v in range(1, f.n + 1) for l in (v, -v)):
            tb = tb_set(node, lit)
            members, src, conflict, fixes = _ref_tb(g, lit)
            src = [index[s] for s in src]
            assert list(tb.src) == src
            assert _shape(tb.src, [member(node, tb, s) for s in tb.src]) == _shape(src, members)
            assert tb.conflict == conflict
            assert list(tb.fixes.items()) == list(fixes.items())
            if not conflict and not g.has_bottom:
                cls, rsrc = _ref_up(g, tb.fixes)[:2]
                assert _at(node.assign(tb.fixes)) == _shape([index[s] for s in rsrc], cls)
        got, fixes = procedure_p_tracked(node)
        ref, rfixes, rindex = _ref_procedure_p(g)
        assert _at(got) == _shape([index[s] for s in rindex], ref.clauses)
        assert list(fixes.items()) == list(rfixes.items())


class TestBundleSeedOnAFixedLiteral:
    def test_probe_of_an_assigned_literal_changes_nothing(self):
        # a two-negative bundle child whose third literal P already fixed is
        # seeded with a probe of that literal; as on a restricted formula,
        # where its variable is in no clause, the probe must fix it without
        # effect (a false conflict here cut the search to 110 nodes)
        st = Br3Stats()
        out = br_3(gen_random_kcnf(3, 42, 179, 2), stats=st)
        assert (out.verdict, st.nodes, st.leaves, st.splits) == ("UNSAT", 122, 82, 3)


class TestForcedTermination:
    def test_doubled_branch_number_close(self):
        # with Phi out of reach, the open chain nnnn* (five clauses, below
        # TAU_CAP) is closed with r2 by the doubled-branch-number rule
        assert forced_termination("nnnn*", lambda_for_zeta("nnnn*"))
        f = gen_random_kcnf(3, 24, 102, 20)
        st = Br3Stats()
        out = br_3(f, PhiConfig(c=1e9), stats=st)
        assert (out.verdict, st.nodes, st.leaves, st.splits, st.max_depth) == ("UNSAT", 79, 51, 2, 6)
        assert brute_force_sat(f) is None
        assert st.closed_zetas == [
            ("n*", False), ("*", True), ("n*", False), ("n*", False),
            ("nn*", False), ("nnnn*", True), ("n*", False), ("n*", False),
        ]


class TestNoPerChildFormula:
    def test_br3_instances_without_restrict(self, monkeypatch):
        """The bench's br3 instances are decided without restricting a
        formula: the clause index is built once per solve, and a Formula of a
        node only for a 2-SAT leaf."""

        def no_restrict(*args):
            raise AssertionError("restrict ran")

        monkeypatch.setattr(formula_module, "restrict", no_restrict)
        monkeypatch.setattr(branching_k, "restrict", no_restrict)
        counts = {"index": 0, "node formula": 0, "2-SAT": 0}

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)

            return wrapped

        index = cached_property(counting("index", Formula.lit_masks.func))
        index.__set_name__(Formula, "lit_masks")
        monkeypatch.setattr(Formula, "lit_masks", index)
        monkeypatch.setattr(Node, "formula", counting("node formula", Node.formula))
        monkeypatch.setattr(branching3, "solve_2sat", counting("2-SAT", branching3.solve_2sat))
        verdicts = [solve_ksat(gen_random_kcnf(3, 28, 119, seed)).verdict for seed in range(10)]
        assert verdicts == ["SAT"] * 4 + ["UNSAT"] + ["SAT"] * 3 + ["UNSAT", "SAT"]
        assert counts["index"] == 10
        assert counts["node formula"] == counts["2-SAT"] > 0


# P keeps its probes across 3->2 replacements. Restricting a random 3-CNF by
# one literal leaves 2-clauses, on which P replaces clauses and scans again.
REUSE_CASES = [restrict(gen_random_kcnf(3, 12, 50, seed), {1 + seed % 12: seed % 2}) for seed in range(40)]


class TestProbeReuse:
    def test_procedure_p_matches_reference_across_replacements(self, monkeypatch):
        fresh = []
        monkeypatch.setattr(branching3, "tb_set", lambda f, lit: fresh.append(lit) or tb_set(f, lit))
        reusing = 0
        for g in REUSE_CASES:
            fresh.clear()
            scans = []
            got, fixes = procedure_p_tracked(Node.of(g))
            ref, rfixes, rindex = _ref_procedure_p(g, scans)
            assert _at(got) == _shape(rindex, ref.clauses)
            assert list(fixes.items()) == list(rfixes.items())
            # a table kept only within one scan would probe each literal of
            # a scan once; a commit clears the table, so fewer fresh probes
            # than that were kept across a replacement
            if len(fresh) < sum(len(set(lits)) for lits in scans):
                reusing += 1
        assert reusing > len(REUSE_CASES) // 2


class TestKeptProbesMatchFresh:
    """Every probe P reads from its table, kept across 3->2 replacements,
    is the probe a fresh closure at the current node gives: the same
    members and conflict flag and, without a conflict, the same fixes as a
    mapping (a kept probe need not hold their order)."""

    @staticmethod
    def _checked(monkeypatch):
        real, hits = branching3._probe, []

        def probe(probes, f, lit):
            kept = probes.get(lit)
            tb = real(probes, f, lit)
            if kept is not None:
                want = tb_set(f, lit)
                assert (tb.src, tb.conflict) == (want.src, want.conflict), lit
                assert tb.conflict or tb.fixes == want.fixes, lit
                hits.append(lit)
            return tb

        monkeypatch.setattr(branching3, "_probe", probe)
        return hits

    @settings(max_examples=300, deadline=None)
    @given(_node_walk())
    def test_after_cut_on_any_removal(self, case):
        # the rule's proof holds for any literal removed from any clause
        # with three free literals, not only for the replacements P makes
        node = _walk(*case)[0]
        if node.has_bottom:
            return
        free = [l for v in range(1, node.root.n + 1) if not node.fixed >> v & 1 for l in (v, -v)]
        before = {l: tb_set(node, l) for l in free}
        for s in bit_indices(node.wide):
            for cut in node.lits(s):
                rest = tuple(l for l in node.lits(s) if l != cut)
                after = node.remove(s, cut)
                for l, tb in before.items():
                    kept = branching3._after_cut(tb, s, cut, rest)
                    if kept is not None:
                        want = tb_set(after, l)
                        assert (kept.src, kept.conflict) == (want.src, want.conflict), (s, cut, l)
                        assert kept.conflict or kept.fixes == want.fixes, (s, cut, l)

    @staticmethod
    def _assert_matches_reference(node, g, index):
        """P at the node against the reference P on g, whose clause j is the
        node's clause index[j]."""
        got, fixes = procedure_p_tracked(node)
        ref, rfixes, rindex = _ref_procedure_p(g)
        assert _at(got) == _shape([index[s] for s in rindex], ref.clauses)
        assert list(fixes.items()) == list(rfixes.items())

    @settings(max_examples=300, deadline=None)
    @given(_node_walk())
    def test_walked_nodes(self, case):
        with pytest.MonkeyPatch.context() as mp:
            self._checked(mp)
            self._assert_matches_reference(*_walk(*case))

    def test_commit_of_a_kept_probe_keeps_the_closure_order(self):
        # a node that br_3 reached on a random 3-CNF (12 variables, 51
        # clauses): the probe of the autark that P commits was kept across a
        # replacement and holds x5 before x4, where a fresh closure of the
        # committed literal fixes x4 first
        f = formula(12, [
            (2, -7, -6), (-11, -8, 1), (11, 9, -4), (11, -1), (-1, 9), (-9, 4, -6), (9, 12, -4), (7, -1, 9),
            (11, 5, -4), (6, 2, -8), (-11, 1, 4), (-2, -5, -11), (12, -2, 8), (-9, -1, -2), (-12, 4, 5),
            (3, 2, -7), (-5, 11), (-11, 7, -9), (4, 5, -3), (-5, -9, 6), (2, -11), (2, -6, -11),
            (-11, -12, -3), (8, 7, -2), (1, -2, 8), (6, 2, -11), (-3, 9, -5), (-3, 2), (-9, 4, 5),
            (-11, 8, -7), (-9, 6, -11), (-4, -9, 3), (-6, -9, 7), (9, -8, -11), (-4, -7), (-5, -9, -2),
            (8, 1), (6, 1, 11), (5, 9, -12), (7, -12, -4), (4, -5, 6), (2, 3, -4), (-2, -1, -9),
            (-8, -9, 2), (-4, -6, -12),
        ])
        want = [(1, 0), (8, 1), (11, 0), (4, 0), (5, 0), (12, 0), (3, 0), (9, 0), (6, 1), (2, 1)]
        assert list(_ref_procedure_p(f)[1].items()) == want
        assert list(procedure_p_tracked(Node.of(f))[1].items()) == want

    def test_reuse_cases(self, monkeypatch):
        hits = self._checked(monkeypatch)
        for g in REUSE_CASES:
            self._assert_matches_reference(Node.of(g), g, range(len(g)))
        assert hits


class TestPinnedProbes:
    def test_br3_probe_count(self, monkeypatch):
        """Fresh probes while deciding the bench's br3 instances: 13,579
        when P probed every literal again after each replacement, and 5,144
        when a replacement of clause s dropped every probe that fixed a
        variable of s."""
        calls = [0]

        def counting(f, lit):
            calls[0] += 1
            return tb_set(f, lit)

        monkeypatch.setattr(branching3, "tb_set", counting)
        verdicts = [solve_ksat(gen_random_kcnf(3, 28, 119, seed)).verdict for seed in range(10)]
        assert verdicts.count("UNSAT") == 2
        assert calls[0] == 2243
