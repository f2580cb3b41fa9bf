"""Branching algorithm for 3-SAT.

Depth-first search on an explicit node stack: simplify, stop on a falsified
clause, stop when the accumulated chains are worth handing to local search
(condition Phi), decide 2-CNFs in polynomial time, otherwise branch a 2-clause
chosen by the seeding rule. The sequence of branching clauses, each the input
3-clause its derived 2-clause came from, grows chains whose adjacent
overlaps are independent/negative/positive/two-negative; the two-negative case
is expanded as an amortized 7-branch composite so its branch-number accounting
matches an actual tree shape.

Forced chain terminations (the doubled-branch-number rule and seed
exhaustion) close the open chain, branch a fresh literal from a 3-clause, and
start the next chain from the resulting new 2-clause. Autark assignments are
committed without branching.

A node's formula is a ``formula.Node`` over the input clauses, indexed once
at ``br_3`` entry, so a clause's index names its root clause. A probe is one
closure, run by ``formula.unit_closure`` on the probed node's ints without
building a node, and kept as its members, conflict flag and fixes; a forced
literal's child assigns the fixes into the probed node, and any other child
assigns 1-2 literals into its parent's bitsets. Procedure P keeps one probe
table per call and updates it in place at a 3->2 replacement: only a probe
that fixes a variable of the replaced clause is looked at again. A
``Formula`` is built only for a 2-SAT leaf.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Container, Generator, NamedTuple, Optional, Sequence

from .bounds import c3
from .chains import branch_number, canonical_zeta, overlap_symbol, transform
from .characteristic import forced_termination, lambda_for_zeta
from .formula import Clause, Formula, Node, bit_indices, lit_values, propagate, solve_2sat, unit_closure, verify_model
from .outcomes import UNSAT, SolveResult


# the longest open chain: at this many clauses it is closed
TAU_CAP = 6


@dataclass(frozen=True)
class PhiConfig:
    """Targeted base c for the termination condition."""

    c: float = c3()

    def __post_init__(self) -> None:
        if not self.c > 1:  # also rejects NaN
            raise ValueError("c must exceed 1, got %r" % self.c)


# joint satisfying patterns of (u or w) and (not-u or not-w or l3),
# as literal-truth triples over (u, w, l3); the first two fan out over a
# fresh literal downstream, giving the amortized 7 branches
BUNDLE_PATTERNS = ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1))


class TbResult(NamedTuple):
    """One probe: the source indices of its member 2-clauses, the conflict
    flag and the closure of the literal (in propagation order when fresh)."""

    src: tuple[int, ...]
    conflict: bool
    fixes: dict[int, int]


# probes of the literals a branch set true, each with the node probed
Probes = tuple[tuple[Node, TbResult], ...]


def tb_set(f: Node, lit: int) -> TbResult:
    """2-clauses of UP(f | lit=1) descending from 3-clauses of f: those the
    closure shortens by one literal and leaves unsatisfied, by root index
    (one mask). On a conflict the set is empty and the flag is set. The
    closure runs on f's ints; no node is built."""
    fixes = {abs(lit): 1 if lit > 0 else 0}
    sat, lo, hi, _, conflict = unit_closure(f, fixes)
    if conflict:
        return TbResult((), True, fixes)
    # two free literals after and an odd count at f, so three there (counts
    # only fall), unsatisfied (sat only grows)
    return TbResult(tuple(bit_indices(f.lo & hi & ~(lo | sat))), False, fixes)


def member(f: Node, tb: TbResult, s: int) -> Clause:
    """The member 2-clause of probe ``tb`` of f that descends from clause s."""
    return Clause(tuple([l for l in f.clauses[s].lits if abs(l) not in tb.fixes]))


def _probe(probes: dict[int, TbResult], f: Node, lit: int) -> TbResult:
    """The probe of lit at f, run only when ``probes`` holds none."""
    tb = probes.get(lit)
    if tb is None:
        tb = probes[lit] = tb_set(f, lit)
    return tb


def _after_cut(tb: TbResult, s: int, cut: int, rest: tuple[int, ...]) -> Optional[TbResult]:
    """Probe ``tb`` of a node g carried over to g' = g.remove(s, cut), or
    None where its closure may change there. Clause s has the three free
    literals cut and ``rest`` at g; at g' it is s' = rest, and no other
    clause differs.

    A conflict stays one: s' subsumes s, so unit propagation at g' derives
    at least what it derives at g. Otherwise let F be tb's closure, closed
    and conflict-free at g. It is kept when (a) it fixes no variable of s,
    (b) it sets a literal of rest true, (c) it sets cut true and fixes no
    variable of rest, or (d) it sets cut false. Then:

    - F is closed and conflict-free at g': it satisfies s' (b, or d with s
      satisfied) or leaves both its literals free (a, c, or d with s a
      member), and every other clause is as at g.
    - Each unit step of F's derivation at g is one at g': a step through s
      sets a literal of s that F makes true, never cut (d sets cut false; in
      b, s sets cut only with rest all false; in a and c, s keeps two free
      literals), so s' is unit under the same fixes.

    So the closure at g' is F as a mapping; only the order may differ,
    where s' turns unit before s did. The members are tb's less s, which
    has two literals at g'. Any other probe sets a literal of rest false,
    none true, and cut true or not at all: s' may be unit at g'."""
    if tb.conflict:
        return tb
    fx = tb.fixes
    a, b = rest
    va, vb = abs(a), abs(b)
    # with rest fixed in part, kept only when a literal of rest is true or
    # cut is false
    if (va in fx or vb in fx) and fx.get(va) != (a > 0) and fx.get(vb) != (b > 0) and fx.get(abs(cut)) != (cut < 0):
        return None
    return tb if s not in tb.src else TbResult(tuple(j for j in tb.src if j != s), False, fx)


def _cut_probes(probes: dict[int, TbResult], s: int, cut: int, rest: tuple[int, ...]) -> dict[int, Optional[TbResult]]:
    """Carry a probe table of g over to g.remove(s, cut) in place, by
    ``_after_cut``, dropping each probe it returns None for. A probe that
    fixes no variable of s is kept as it is without the call (case (a)).
    Returns the probes that changed or were dropped, by literal."""
    va, vb, vc = abs(cut), abs(rest[0]), abs(rest[1])
    moved = {}
    for l, p in probes.items():
        fx = p.fixes
        if (va in fx or vb in fx or vc in fx) and (q := _after_cut(p, s, cut, rest)) is not p:
            moved[l] = q
    for l, q in moved.items():
        if q is None:
            del probes[l]
        else:
            probes[l] = q
    return moved


def _replacement(g: Node, pairs: Sequence[tuple[TbResult, int]]) -> Optional[tuple[TbResult, int]]:
    """The first member s of a probe tb of g in ``pairs``, ``(tb, other)``
    in order, whose clause contains the other literal of the scanned
    2-clause, as ``(tb, s)``; None when there is none. A member has three
    free literals at g, so g's mask of other tells whether it holds other."""
    for tb, other in pairs:
        if abs(other) in tb.fixes:
            continue  # the closure fixes other: no member holds it
        holds = g.masks[other]
        for s in tb.src:
            if holds >> s & 1:
                return tb, s
    return None


def procedure_p_tracked(f: Node) -> tuple[Node, dict[int, int]]:
    """Simplification to fixpoint: unit propagation, autark commitment, and
    3-clause-to-2-clause replacement. Returns f simplified and the fixed
    variables. A replacement keeps every probe whose closure it provably
    leaves unchanged (``_after_cut``), updating the table in place
    (``_cut_probes``), and a 2-clause that did nothing is not scanned again
    while both its probes are kept unchanged."""
    g, fixes, conflict = propagate(f, {})
    clauses = g.clauses
    # propagated once: neither step below leaves a unit clause, since a
    # commit adopts a complete, conflict-free closure and a replacement
    # leaves a 2-clause
    probes: dict[int, TbResult] = {}  # the probes of g, by literal
    quiet: dict[int, tuple[int, int]] = {}  # 2-clauses that did nothing, by index
    while not conflict:
        for i in bit_indices(g.pairs):
            if i in quiet:
                continue
            l1, l2 = g.lits(i)
            tb1 = _probe(probes, g, l1)
            # l2 is probed only when l1 is no autark
            lit, tb2 = (l2, _probe(probes, g, l2)) if tb1.conflict or tb1.src else (l1, tb1)
            if not tb2.conflict and not tb2.src:
                # an autark: commit it, closing it again, since a kept
                # probe holds the closure's fixes but not their order
                g, fx, _ = propagate(g, {abs(lit): 1 if lit > 0 else 0})
                fixes.update(fx)
                probes, quiet = {}, {}
                break
            rep = _replacement(g, ((tb1, l2), (tb2, l1)))
            if rep is not None:
                tb, s = rep
                cut = next(l for l in clauses[s].lits if abs(l) in tb.fixes)
                rest = tuple(l for l in clauses[s].lits if l != cut)
                g = g.remove(s, cut)
                moved = _cut_probes(probes, s, cut, rest)
                # a 2-clause stays quiet while both its probes are unchanged
                quiet = {j: c for j, c in quiet.items() if c[0] not in moved and c[1] not in moved}
                break
            quiet[i] = (l1, l2)
        else:
            break
    return g, fixes


def rule_upsilon(pending: Probes, assigned: Container[int]) -> Optional[tuple[Clause, int]]:
    """First usable member of the parent's seed probes with its root index,
    or None: branch a fresh literal. Probes are tried in order and their
    members in clause order; a member is usable when both its variables are
    unassigned."""
    for f, tb in pending:
        for s in tb.src:
            m = member(f, tb, s)
            if abs(m.lits[0]) not in assigned and abs(m.lits[1]) not in assigned:
                return m, s
    return None


def _log2_branch_sum(typed: Sequence[tuple[str, bool]]) -> float:
    """sum_i nu_i log2 b_i over the chains' (zeta, r2), nu_i counting the
    chains of each (canonical zeta, r2) in first-occurrence order."""
    total = 0.0
    for (z, r2), cnt in Counter((canonical_zeta(z), r2) for z, r2 in typed).items():
        b = branch_number(z, r2)
        total += cnt * (math.log2(b.numerator) - math.log2(b.denominator))
    return total


def condition_phi(typed: Sequence[tuple[str, bool]], n: int, cfg: PhiConfig) -> bool:
    """sum_i nu_i log b_i > n log c over the (zeta, r2) of a path's chains;
    never with no chain."""
    return bool(typed) and _log2_branch_sum(typed) > n * math.log2(cfg.c)


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


@dataclass(frozen=True)
class _Path:
    """One root-to-node path: its closed chains, the open chain's root
    clauses and overlap symbols, the depth, the fresh-literal splits charged,
    and whether the next split is free (it follows a chain's closing)."""

    closed: tuple[_ClosedChain, ...] = ()
    origs: tuple[Clause, ...] = ()
    syms: str = ""
    depth: int = 0
    splits: int = 0
    credit: bool = False

    @property
    def zeta(self) -> str:
        return self.syms + "*"

    def typed(self) -> list[tuple[str, bool]]:
        """(zeta, r2) of each chain, the open one last."""
        typed = [(c.zeta, c.r2) for c in self.closed]
        if self.origs:
            typed.append((self.zeta, False))
        return typed

    def product(self) -> Fraction:
        """The path's product of branch numbers, charged splits included."""
        prod = Fraction(2) ** self.splits
        for z, r2 in self.typed():
            prod *= branch_number(z, r2)
        return prod

    def child(self) -> "_Path":
        return replace(self, depth=self.depth + 1, credit=False)


# a node's search, run by ``br_3``: it yields each child as its ``node``
# arguments, is sent the child's outcome, and returns its own
SearchGen = Generator[tuple[Node, dict[int, int], _Path, Probes], SolveResult, SolveResult]


class _Search:
    def __init__(self, cfg: PhiConfig, stats: Br3Stats, trace: Optional[Callable[[str], None]]):
        self.cfg = cfg
        self.stats = stats
        self.trace = trace

    def _close(self, path: _Path, r2: bool) -> _Path:
        """The path with its open chain closed; its next split is free."""
        z = path.zeta
        assert "tp" not in z and "tt" not in z, z
        self.stats.closed_zetas.append((z, r2))
        closed = path.closed + (_ClosedChain(path.origs, z, r2),)
        return replace(path, closed=closed, origs=(), syms="", credit=True)

    def _leaf(self, outcome: SolveResult) -> SolveResult:
        self.stats.leaves += 1
        return outcome

    def node(self, f: Node, alpha: dict[int, int], path: _Path, pending: Probes) -> SearchGen:
        """Search below one node; ``pending`` holds the parent's probes of
        the literals the branch set true, which seed the next clause."""
        self.stats.nodes += 1
        self.stats.max_depth = max(self.stats.max_depth, path.depth)
        f, fixes = procedure_p_tracked(f)
        if fixes:
            alpha = {**alpha, **fixes}
        if f.has_bottom:
            return self._leaf(UNSAT)
        typed = path.typed()
        phi_num = _log2_branch_sum(typed)  # condition Phi's left side
        if typed and phi_num > f.root.n * math.log2(self.cfg.c):
            self.stats.phi_events.append(PhiEvent(self.stats.leaves, path.product(), len(typed)))
            seq = [c for ch in path.closed for c in ch.origs] + list(path.origs)
            return SolveResult("INSTANCE", instance=transform(seq))
        if not f.wide:
            m = solve_2sat(f.formula())
            if m is None:
                return self._leaf(UNSAT)
            return self._leaf(SolveResult("SAT", {**m, **alpha}))
        # forced termination: the open chain has TAU_CAP clauses, or the
        # doubled-branch-number rule fires
        z = path.zeta
        if path.origs and (len(path.origs) >= TAU_CAP or forced_termination(z, lambda_for_zeta(z))):
            return (yield f, alpha, self._close(path, True), ())

        picked = rule_upsilon(pending, alpha)
        if picked is None:
            # no seed conflicts here: each was probed for a literal this node
            # sets true, so its conflict already falsified f in P above
            if path.origs:
                return (yield f, alpha, self._close(path, True), ())
            return (yield from self.fresh(f, alpha, path))

        sel, s = picked
        sym = "-"
        if path.origs:
            sym = overlap_symbol(path.origs[-1].lits, f.clauses[s].lits)
            assert sym in "*np", sym
            path = self._close(path, False) if sym == "*" else replace(path, syms=path.syms + sym)
        path = replace(path, origs=path.origs + (f.clauses[s],))

        if self.trace:
            self.trace(
                "depth=%d clause=%s sym=%s zeta=%s phi_num=%.4f"
                % (path.depth, sel, sym, path.syms, phi_num)
            )

        u, w = sel.lits
        tbu = tb_set(f, u)
        if len(path.origs) < TAU_CAP and tbu.src:
            c = f.clauses[tbu.src[0]]
            if -u in c.lits and -w in c.lits:
                return (yield from self._bundle(f, alpha, path, (u, w), c))
        probes = ((f, tbu), (f, tb_set(f, w)))
        for bits in ((0, 1), (1, 0), (1, 1)):
            add = lit_values((u, w), bits)
            seeds = tuple(p for p, b in zip(probes, bits) if b)
            sub = yield f.assign(add), {**alpha, **add}, path.child(), seeds
            if sub.verdict != "UNSAT":
                return sub
        return UNSAT

    def _bundle(self, f, alpha, path: _Path, uw, c: Clause) -> SearchGen:
        """The two-negative composite: the root clause c joins the open
        chain, and one child per pattern of BUNDLE_PATTERNS; the children
        that set its third literal false close the chain."""
        l3 = next(l for l in c.lits if abs(l) not in (abs(uw[0]), abs(uw[1])))
        path = replace(path, origs=path.origs + (c,), syms=path.syms + "t").child()
        shared = None
        for bu, bw, b3 in BUNDLE_PATTERNS:
            if (bu, bw) != shared:
                # the patterns sharing (u, w) share its simplified formula
                shared = (bu, bw)
                add = lit_values(uw, shared)
                fy, fixes = procedure_p_tracked(f.assign(add))
                alpha_y = {**alpha, **add, **fixes}
                if fy.has_bottom:
                    self.stats.leaves += 1
            if fy.has_bottom:
                continue
            v3, add3 = abs(l3), lit_values((l3,), (b3,))
            if v3 in alpha_y:
                if alpha_y[v3] != add3[v3]:
                    self.stats.leaves += 1
                    continue
                sub_f, sub_alpha = fy, alpha_y
            else:
                sub_f, sub_alpha = fy.assign(add3), {**alpha_y, **add3}
            if b3:
                sub = yield sub_f, sub_alpha, path, ((fy, tb_set(fy, l3)),)
            else:
                sub = yield sub_f, sub_alpha, self._close(path, False), ()
            if sub.verdict != "UNSAT":
                return sub
        return UNSAT

    def fresh(self, f, alpha, path: _Path) -> SearchGen:
        """Start a new chain: pretest a fresh literal, commit autarks and
        forced values without branching, split only when both sides produce
        new 2-clauses."""
        x = f.clauses[next(bit_indices(f.wide))].lits[0]  # width > 2 here
        tb1 = tb_set(f, x)
        tb0 = tb_set(f, -x)
        if tb1.conflict and tb0.conflict:
            return self._leaf(UNSAT)
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
            return (yield f.assign(forced.fixes), {**alpha, **forced.fixes}, path, ())
        self.stats.splits += 1
        child = replace(path.child(), splits=path.splits + (not path.credit))
        for tb in (tb0, tb1):
            sub = yield f.assign(tb.fixes), {**alpha, **tb.fixes}, child, ((f, tb),)
            if sub.verdict != "UNSAT":
                return sub
        return UNSAT


def br_3(
    f: Formula,
    cfg: Optional[PhiConfig] = None,
    trace: Optional[Callable[[str], None]] = None,
    stats: Optional[Br3Stats] = None,
) -> SolveResult:
    """Run the 3-SAT branching: a satisfying assignment, unsatisfiable, or an
    instance of chains for the local search."""
    if f.width() > 3:
        raise ValueError("br_3 expects a 3-CNF")
    cfg = cfg or PhiConfig()
    stats = stats if stats is not None else Br3Stats()
    search = _Search(cfg, stats, trace)
    # the suspended nodes of the current path, the root first; a node is
    # started with None and resumed with its last child's outcome
    stack, out = [search.node(Node.of(f), {}, _Path(), ())], None
    while stack:
        try:
            stack.append(search.node(*stack[-1].send(out)))
            out = None
        except StopIteration as done:
            stack.pop()
            out = done.value
    if out.verdict == "SAT":
        total = {v: 0 for v in range(1, f.n + 1)}
        total.update(out.assignment)
        verify_model(f, total)
        return SolveResult("SAT", total)
    return out
