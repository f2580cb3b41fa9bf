import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detksat.chains import (
    ChainError,
    OverlapError,
    branch_number,
    build_chain,
    build_instance,
    canonical_realization,
    canonical_zeta,
    eta_of_zeta,
    generate_chain_types,
    overlap_symbol,
    solution_space,
    transform,
    zeta,
)
from detksat.formula import clause


def chain_of(*lit_tuples, k=3):
    return build_chain([clause(t) for t in lit_tuples], k)


class TestBuildChain:
    def test_single_clause(self):
        assert len(chain_of((1, 2, 3))) == 1

    def test_adjacent_share(self):
        assert len(chain_of((1, 2, 3), (-3, 4, 5))) == 2

    def test_adjacent_independent_rejected(self):
        with pytest.raises(ChainError, match=r"\(0,1\)"):
            chain_of((1, 2, 3), (4, 5, 6))

    def test_nonadjacent_overlap_rejected(self):
        with pytest.raises(ChainError, match=r"\(0,2\)"):
            chain_of((1, 2, 3), (-3, 4, 5), (-5, 1, 6))

    def test_wrong_width_rejected(self):
        with pytest.raises(ChainError, match="width"):
            chain_of((1, 2), k=3)

    def test_exhaustive_small_cases(self):
        # tau <= 3 structured clauses over few variables: build_chain accepts
        # exactly the lists satisfying the neighbour-overlap law
        vars_pool = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (1, 6, 7), (2, 4, 6)]
        for tup in product(vars_pool, repeat=3):
            cls = [clause(t) for t in tup]
            legal = True
            for i in range(3):
                for j in range(i + 1, 3):
                    shared = set(map(abs, tup[i])) & set(map(abs, tup[j]))
                    if j - i > 1 and shared:
                        legal = False
                    if j - i == 1 and not shared:
                        legal = False
            if legal:
                build_chain(cls, 3)
            else:
                with pytest.raises(ChainError):
                    build_chain(cls, 3)


class TestInstance:
    def test_disjoint_ok(self):
        build_instance([chain_of((1, 2, 3)), chain_of((4, 5, 6))])

    def test_overlapping_rejected(self):
        with pytest.raises(ChainError, match="disjoint"):
            build_instance([chain_of((1, 2, 3)), chain_of((3, 4, 5))])


class TestSolutionSpace:
    def test_1chain_has_7_words(self):
        sp = solution_space(chain_of((1, 2, 3)))
        assert len(sp) == 7
        assert set(sp.words) == set(range(1, 8))

    def test_negative_2chain_24(self):
        sp = solution_space(chain_of((1, 2, 3), (-2, 4, 5)))
        assert len(sp) == 24
        assert len(sp) == self._enumerate((1, 2, 3), (-2, 4, 5))

    def test_two_negative_2chain_12(self):
        # 2^4 minus two falsifying words per clause, overlap empty
        sp = solution_space(chain_of((1, 2, 3), (-2, -3, 4)))
        assert len(sp) == 12
        assert len(sp) == self._enumerate((1, 2, 3), (-2, -3, 4))

    @staticmethod
    def _enumerate(*cls):
        # independent reference count: direct truth-table filter
        vs = sorted({abs(l) for c in cls for l in c})
        count = 0
        for bits in product((0, 1), repeat=len(vs)):
            val = dict(zip(vs, bits))
            if all(any((val[abs(l)] == 1) == (l > 0) for l in c) for c in cls):
                count += 1
        return count

    def test_polarity_flip_preserves_cardinality(self):
        rng = random.Random(2)
        base = chain_of((1, 2, 3), (-3, 4, 5), (5, 6, 7))
        n0 = len(solution_space(base))
        for _ in range(10):
            v = rng.randint(1, 7)
            flipped = [
                clause(tuple(-l if abs(l) == v else l for l in c.lits))
                for c in base.clauses
            ]
            assert len(solution_space(build_chain(flipped, 3))) == n0

    @staticmethod
    def _loop_words(chain):
        # the per-word loop over the variable order, as a reference
        pos = {v: i for i, v in enumerate(chain.var_order())}
        return tuple(
            w
            for w in range(1 << len(pos))
            if all(
                any(((w >> pos[abs(l)]) & 1) == (l > 0) for l in c.lits) for c in chain.clauses
            )
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_word_loop(self, data):
        # a random chain: each clause shares 1 to k-1 of the variables its
        # predecessor does not share further back, random signs throughout
        k = data.draw(st.integers(3, 5), label="k")
        length = data.draw(st.integers(1, 3), label="clauses")
        fresh = iter(range(1, 100))
        vs = [next(fresh) for _ in range(k)]
        var_sets = [vs]
        private = vs
        for _ in range(length - 1):
            most = min(len(private), k - 1)
            pick = st.lists(st.sampled_from(private), min_size=1, max_size=most, unique=True)
            shared = data.draw(pick)
            vs = shared + [next(fresh) for _ in range(k - len(shared))]
            private = vs[len(shared):]
            var_sets.append(vs)
        cls = [clause(tuple(v if data.draw(st.booleans()) else -v for v in vs)) for vs in var_sets]
        chain = build_chain(cls, k)
        assert solution_space(chain).words == self._loop_words(chain)

    def test_guard(self):
        cls = [clause((1, 2, 3))]
        for i in range(12):
            last = cls[-1].lits
            cls.append(clause((-last[-1], 4 + 2 * i, 5 + 2 * i)))
        with pytest.raises(ChainError, match="guard"):
            solution_space(build_chain(cls, 3))


class TestZeta:
    def test_direct(self):
        cls = [clause((1, 2, 3)), clause((-3, 4, 5)), clause((6, 7, 8))]
        assert zeta(cls) == "n**"

    def test_positive(self):
        assert zeta([clause((1, 2, 3)), clause((3, 4, 5))]) == "p*"

    def test_two_negative(self):
        assert zeta([clause((1, 2, 3)), clause((-2, -3, 4))]) == "t*"

    def test_unsupported_overlap(self):
        with pytest.raises(OverlapError):
            overlap_symbol((1, 2, 3), (2, 3, 4))


class TestTransform:
    def test_n_star_star(self):
        cls = [clause((1, 2, 3)), clause((-3, 4, 5)), clause((6, 7, 8))]
        inst = transform(cls)
        assert [len(s) for s in inst.chains] == [2, 1]

    def test_single(self):
        inst = transform([clause((1, 2, 3))])
        assert [len(s) for s in inst.chains] == [1]

    def test_tn_star_star(self):
        cls = [
            clause((1, 2, 3)),
            clause((-2, -3, 4)),
            clause((-4, 5, 6)),
            clause((7, 8, 9)),
        ]
        inst = transform(cls)
        assert [len(s) for s in inst.chains] == [3, 1]


class TestBranchNumber:
    def test_values(self):
        assert branch_number("*") == 3
        assert branch_number("n*") == 9
        assert branch_number("pp*", r2=True) == 24

    def test_multiplicative_under_concatenation(self):
        rng = random.Random(9)
        alphabet = "npt*"
        for _ in range(100):
            z1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))) + "*"
            z2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))) + "*"
            assert branch_number(z1) * branch_number(z2) == branch_number(z1 + z2)

    def test_eta(self):
        assert eta_of_zeta("*") == 3
        assert eta_of_zeta("nnnn*") == 11
        assert eta_of_zeta("tnt*") == 7


class TestCanonical:
    def test_reversal(self):
        assert canonical_zeta("pn*") == "np*"
        assert canonical_zeta("tnp*") == "pnt*"
        assert canonical_zeta("npn*") == "npn*"

    def test_realization_matches_zeta(self):
        for z in ("*", "n*", "p*", "t*", "ntn*", "tnnnp*"):
            ch = canonical_realization(z)
            assert zeta(ch.clauses) == z


class TestGenerator:
    def test_generation(self):
        rep = generate_chain_types()
        zetas = {(r.zeta, r.r2) for r in rep.records}
        # first emitted type is the single-clause chain
        assert rep.records[0].zeta == "*" and not rep.records[0].r2
        assert rep.records[0].lam == Fraction(3, 7)
        assert ("%.7f" % rep.records[0].f).startswith("0.98586")
        # the forced termination of the all-negative 4-overlap chain exists
        assert ("nnnn*", True) in zetas
        # every reference row is produced
        assert not [d for d in rep.reference_diff if "not generated" in d]
        # the closure is under-determined: the generator reports extras
        # beyond the 38 tabulated rows instead of guessing
        assert any("not in reference" in d for d in rep.reference_diff)
