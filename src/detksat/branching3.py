"""Branching algorithm for 3-SAT.

Depth-first recursion: simplify, stop on a falsified clause, stop when the
accumulated chains are worth handing to local search (condition Phi), decide
2-CNFs in polynomial time, otherwise branch a 2-clause chosen by the seeding
rule. The sequence of branching clauses (in original form) grows chains whose
adjacent overlaps are independent/negative/positive/two-negative; the
two-negative case is expanded as an amortized 7-branch composite so its
branch-number accounting matches an actual tree shape.

Forced chain terminations (the doubled-branch-number rule and seed
exhaustion) close the open chain, branch a fresh literal from a 3-clause, and
start the next chain from the resulting new 2-clause. Autark assignments are
committed without branching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, Optional

from .chains import (
    ChainVector,
    branch_number,
    eta_of_zeta,
    overlap_symbol,
    transform,
)
from .characteristic import F1, f_raw, lambda_for_zeta
from .formula import (
    Clause,
    Formula,
    propagate,
    restrict,
    solve_2sat,
    up_restrict,
    verify_model,
)
from .outcomes import Outcome


def _default_c3() -> float:
    return 3.0 ** (math.log2(4 / 3) / math.log2(64 / 21))


@dataclass(frozen=True)
class PhiConfig:
    """Targeted base c for the termination condition, plus chain policy."""

    c: float = _default_c3()
    f_threshold: float = F1
    tau_cap: int = 6

    def __post_init__(self) -> None:
        if not self.c > 1:  # also rejects NaN
            raise ValueError("c must exceed 1, got %r" % self.c)


@dataclass(frozen=True)
class Seeds:
    parent_formula: Formula
    seeds: tuple[int, ...]


# joint satisfying patterns of (u or w) and (not-u or not-w or l3),
# as literal-truth triples over (u, w, l3); the first two fan out over a
# fresh literal downstream, giving the amortized 7 branches
BUNDLE_PATTERNS = ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1))


@dataclass(frozen=True)
class TbResult:
    """One probe: the source indices of its member 2-clauses in the probed
    formula, the conflict flag and the propagation closure of the literal.
    ``member`` builds a member clause from its source index."""

    src: tuple[int, ...]
    conflict: bool
    fixes: dict[int, int]


def tb_set(f: Formula, lit: int) -> TbResult:
    """2-clauses of UP(f | lit=1) descending from 3-clauses of f.

    The members are the 3-clauses of f that the closure shortens by exactly
    one literal without satisfying them, returned as their indices in f.
    Neither the restricted formula nor a member clause is built (a caller
    that commits the probe runs ``up_restrict(f, fixes)``). On a
    propagation conflict the member set is empty and the flag is set.
    """
    fixes, conflict = propagate(f, {abs(lit): 1 if lit > 0 else 0})
    if conflict:
        return TbResult((), True, fixes)
    clauses, widths, occ = f.clauses, f.widths, f.occurrences
    src = []
    for v, b in fixes.items():
        # clauses in which the fixed value falsifies a literal
        for s in occ.get(-v if b else v, ()):
            if widths[s] == 3:
                x, y, z = clauses[s].lits
                if (abs(x) in fixes) + (abs(y) in fixes) + (abs(z) in fixes) == 1:
                    src.append(s)
    src.sort()
    return TbResult(tuple(src), False, fixes)


def member(f: Formula, tb: TbResult, s: int) -> Clause:
    """The member 2-clause of probe ``tb`` of f that descends from clause s."""
    c = f.clauses[s]
    return Clause(tuple([l for l in c.lits if abs(l) not in tb.fixes]), c.orig)


def procedure_p_tracked(f: Formula) -> tuple[Formula, dict[int, int]]:
    """Simplification to fixpoint: unit propagation, autark commitment, and
    3-clause-to-2-clause replacement. Returns the formula and fixed variables."""
    up = up_restrict(f, {})
    f, fixes = up.formula, up.fixes
    if up.conflict:
        return f, fixes
    # propagated once: neither step below leaves a unit clause, since a
    # commit restricts by a complete, conflict-free closure and a
    # replacement adds a 2-clause
    while True:
        for c in f.clauses:
            if c.width != 2:
                continue
            l1, l2 = c.lits
            tb1 = tb_set(f, l1)
            # l2 is probed only when l1 is no autark
            tb2 = tb_set(f, l2) if tb1.conflict or tb1.src else tb1
            if not tb2.conflict and not tb2.src:  # an autark: commit it
                up = up_restrict(f, tb2.fixes)
                f = up.formula
                fixes.update(up.fixes)
                break
            # a member of one probe that contains the other literal
            rep = next(
                (
                    (tb, s)
                    for tb, other in ((tb1, l2), (tb2, l1))
                    for s in tb.src
                    if other in f.clauses[s].lits and abs(other) not in tb.fixes
                ),
                None,
            )
            if rep is not None:
                cls = list(f.clauses)
                cls[rep[1]] = member(f, *rep)
                f = Formula(f.n, tuple(cls))
                break
        else:
            return f, fixes


def rule_upsilon(pending: Optional[Seeds], assigned: Container[int]) -> Optional[Clause]:
    """First usable seeded 2-clause, or None: branch a fresh literal.

    Seeds are tried in clause order; a member is usable when both of its
    variables are still unassigned at the node.
    """
    if pending is None:
        return None
    f = pending.parent_formula
    for seed in pending.seeds:
        tb = tb_set(f, seed)
        for s in tb.src:
            m = member(f, tb, s)
            if abs(m.lits[0]) not in assigned and abs(m.lits[1]) not in assigned:
                return m
    return None


def condition_phi(vec: ChainVector, n: int, cfg: PhiConfig) -> bool:
    """sum_i nu_i log b_i > n log c."""
    if not vec.counts:
        return False
    return vec.log2_branch_sum() > n * math.log2(cfg.c)


@dataclass
class PhiEvent:
    leaves_before: int
    path_product: Fraction
    chain_count: int


@dataclass
class Br3Stats:
    nodes: int = 0
    leaves: int = 0
    splits: int = 0
    max_depth: int = 0
    closed_zetas: list[tuple[str, bool]] = field(default_factory=list)
    phi_events: list[PhiEvent] = field(default_factory=list)


@dataclass(frozen=True)
class _ClosedChain:
    origs: tuple[Clause, ...]
    zeta: str
    r2: bool


class _Search:
    def __init__(self, cfg: PhiConfig, stats: Br3Stats, trace: Optional[Callable[[str], None]]):
        self.cfg = cfg
        self.stats = stats
        self.trace = trace

    # -- bookkeeping -------------------------------------------------------

    def _close(self, origs, syms, r2: bool) -> _ClosedChain:
        z = "".join(syms) + "*"
        assert "tp" not in z and "tt" not in z, z
        self.stats.closed_zetas.append((z, r2))
        return _ClosedChain(tuple(origs), z, r2)

    def _vector(self, closed, open_syms, has_open: bool) -> ChainVector:
        typed = [(c.zeta, c.r2) for c in closed]
        if has_open:
            typed.append(("".join(open_syms) + "*", False))
        return ChainVector.from_typed_chains(typed)

    def _rule2_fires(self, open_syms) -> bool:
        z = "".join(open_syms) + "*"
        lam = lambda_for_zeta(z)
        return f_raw(2 * branch_number(z), eta_of_zeta(z), lam) <= self.cfg.f_threshold

    def _leaf(self, outcome: Outcome) -> Outcome:
        self.stats.leaves += 1
        return outcome

    def _phi_product(self, closed, open_syms, has_open: bool, path_splits: int) -> Fraction:
        prod = Fraction(2) ** path_splits
        for c in closed:
            prod *= branch_number(c.zeta, c.r2)
        if has_open:
            prod *= branch_number("".join(open_syms) + "*", False)
        return prod

    # -- the recursion -----------------------------------------------------

    def node(
        self,
        f: Formula,
        alpha: dict[int, int],
        closed: tuple[_ClosedChain, ...],
        open_origs: tuple[Clause, ...],
        open_syms: tuple[str, ...],
        pending: Optional[Seeds],
        depth: int,
        path_splits: int,
        split_credit: int,
    ) -> Outcome:
        self.stats.nodes += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        f, fixes = procedure_p_tracked(f)
        if fixes:
            alpha = {**alpha, **fixes}
        if f.has_bottom:
            return self._leaf(Outcome.unsat())
        vec = self._vector(closed, open_syms, bool(open_origs))
        if condition_phi(vec, f.n, self.cfg):
            self.stats.phi_events.append(
                PhiEvent(
                    self.stats.leaves,
                    self._phi_product(closed, open_syms, bool(open_origs), path_splits),
                    len(closed) + (1 if open_origs else 0),
                )
            )
            seq = [c for ch in closed for c in ch.origs] + list(open_origs)
            return Outcome.of_instance(transform(seq))
        if f.width() <= 2:
            m = solve_2sat(f)
            if m is None:
                return self._leaf(Outcome.unsat())
            total = {**m, **alpha}
            return self._leaf(Outcome.sat(total))
        if open_origs and (len(open_origs) >= self.cfg.tau_cap or self._rule2_fires(open_syms)):
            closed2 = closed + (self._close(open_origs, open_syms, True),)
            return self.node(f, alpha, closed2, (), (), None, depth, path_splits, 1)

        sel = rule_upsilon(pending, alpha)
        if sel is None:
            if pending is not None and self._pending_conflicts(pending):
                return self._leaf(Outcome.unsat())
            if open_origs:
                closed2 = closed + (self._close(open_origs, open_syms, True),)
                return self.node(f, alpha, closed2, (), (), None, depth, path_splits, 1)
            return self.fresh(f, alpha, closed, depth, path_splits, split_credit)

        if open_origs:
            sym = overlap_symbol(open_origs[-1].lits, sel.orig)
            assert sym in "*np", sym
        else:
            sym = None
        if sym == "*":
            closed = closed + (self._close(open_origs, open_syms, False),)
            open_origs, open_syms = (), ()
        orig_clause = Clause(sel.orig, sel.orig)
        if open_origs:
            open_syms = open_syms + (sym,)
        open_origs = open_origs + (orig_clause,)

        if self.trace:
            self.trace(
                "depth=%d clause=%s sym=%s zeta=%s phi_num=%.4f"
                % (depth, sel, sym or "-", "".join(open_syms), vec.log2_branch_sum())
            )

        bundle = self._bundle_member(f, sel, len(open_origs))
        if bundle is not None:
            return self._branch_bundle(
                f, alpha, closed, open_origs, open_syms, sel, bundle, depth, path_splits
            )
        return self._branch_plain(
            f, alpha, closed, open_origs, open_syms, sel, depth, path_splits
        )

    def _pending_conflicts(self, pending: Seeds) -> bool:
        """True when every seed's propagation in the parent conflicts.

        A conflicting seed is a unit consequence against this branch, so the
        branch is unsatisfiable; a non-conflicting seed merely had no usable
        member and falls through to the fresh-literal path.
        """
        saw_ok = False
        for seed in pending.seeds:
            if not tb_set(pending.parent_formula, seed).conflict:
                saw_ok = True
        return not saw_ok

    def _bundle_member(self, f: Formula, sel: Clause, open_len: int):
        if open_len + 1 > self.cfg.tau_cap:
            return None
        u, w = sel.lits
        tbu = tb_set(f, u)
        if not tbu.src:
            return None
        orig = f.clauses[tbu.src[0]].orig
        if -u in orig and -w in orig:
            l3 = next(l for l in orig if abs(l) not in (abs(u), abs(w)))
            return (orig, l3)
        return None

    def _branch_plain(
        self, f, alpha, closed, open_origs, open_syms, sel, depth, path_splits
    ) -> Outcome:
        u, w = sel.lits
        for bu, bw in ((0, 1), (1, 0), (1, 1)):
            add = {
                abs(u): bu if u > 0 else 1 - bu,
                abs(w): bw if w > 0 else 1 - bw,
            }
            seeds = tuple(l for l, b in ((u, bu), (w, bw)) if b == 1)
            sub = self.node(
                restrict(f, add),
                {**alpha, **add},
                closed,
                open_origs,
                open_syms,
                Seeds(f, seeds),
                depth + 1,
                path_splits,
                0,
            )
            if sub.kind != "unsat":
                return sub
        return Outcome.unsat()

    def _branch_bundle(
        self, f, alpha, closed, open_origs, open_syms, sel, bundle, depth, path_splits
    ) -> Outcome:
        orig, l3 = bundle
        open_origs = open_origs + (Clause(orig, orig),)
        open_syms = open_syms + ("t",)
        u, w = sel.lits
        v3 = abs(l3)
        grouped: dict[tuple[int, int], list[int]] = {}
        for bu, bw, b3 in BUNDLE_PATTERNS:
            grouped.setdefault((bu, bw), []).append(b3)
        for (bu, bw), b3s in grouped.items():
            add = {
                abs(u): bu if u > 0 else 1 - bu,
                abs(w): bw if w > 0 else 1 - bw,
            }
            fy, fy_fix = procedure_p_tracked(restrict(f, add))
            alpha_y = {**alpha, **add, **fy_fix}
            if fy.has_bottom:
                self.stats.leaves += 1
                continue
            for b3 in b3s:
                val3 = b3 if l3 > 0 else 1 - b3
                if v3 in alpha_y:
                    if alpha_y[v3] != val3:
                        self.stats.leaves += 1
                        continue
                    sub_f, sub_alpha = fy, alpha_y
                else:
                    sub_f = restrict(fy, {v3: val3})
                    sub_alpha = {**alpha_y, v3: val3}
                if b3 == 1:
                    sub = self.node(
                        sub_f,
                        sub_alpha,
                        closed,
                        open_origs,
                        open_syms,
                        Seeds(fy, (l3,)),
                        depth + 1,
                        path_splits,
                        0,
                    )
                else:
                    closed2 = closed + (self._close(open_origs, open_syms, False),)
                    sub = self.node(
                        sub_f, sub_alpha, closed2, (), (), None, depth + 1, path_splits, 1
                    )
                if sub.kind != "unsat":
                    return sub
        return Outcome.unsat()

    def fresh(
        self, f, alpha, closed, depth, path_splits, split_credit
    ) -> Outcome:
        """Start a new chain: pretest a fresh literal, commit autarks and
        forced values without branching, split only when both sides produce
        new 2-clauses."""
        three = next((c for c in f.clauses if c.width == 3), None)
        assert three is not None
        x = three.lits[0]
        tb1 = tb_set(f, x)
        tb0 = tb_set(f, -x)
        if tb1.conflict and tb0.conflict:
            return self._leaf(Outcome.unsat())
        if tb1.conflict:
            forced = tb0
        elif tb0.conflict or not tb1.src:
            forced = tb1
        elif not tb0.src:
            forced = tb0
        else:
            forced = None
        if forced is not None:
            # a forced value or an autark: commit it without branching
            up = up_restrict(f, forced.fixes)
            return self.node(
                up.formula, {**alpha, **up.fixes}, closed, (), (), None,
                depth, path_splits, split_credit,
            )
        self.stats.splits += 1
        if split_credit > 0:
            child_splits = path_splits
        else:
            child_splits = path_splits + 1
        for val, tb in ((0, tb0), (1, tb1)):
            seed = x if val == 1 else -x
            up = up_restrict(f, tb.fixes)
            sub = self.node(
                up.formula,
                {**alpha, **up.fixes},
                closed,
                (),
                (),
                Seeds(f, (seed,)),
                depth + 1,
                child_splits,
                0,
            )
            if sub.kind != "unsat":
                return sub
        return Outcome.unsat()


def br_3(
    f: Formula,
    cfg: Optional[PhiConfig] = None,
    trace: Optional[Callable[[str], None]] = None,
    stats: Optional[Br3Stats] = None,
) -> Outcome:
    """Run the 3-SAT branching: a satisfying assignment, unsatisfiable, or an
    instance of chains for the local search."""
    if f.width() > 3:
        raise ValueError("br_3 expects a 3-CNF")
    cfg = cfg or PhiConfig()
    stats = stats if stats is not None else Br3Stats()
    search = _Search(cfg, stats, trace)
    out = search.node(f, {}, (), (), (), None, 0, 0, 0)
    if out.kind == "sat":
        total = {v: 0 for v in range(1, f.n + 1)}
        total.update(out.assignment)
        verify_model(f, total)
        return Outcome.sat(total)
    return out
