"""CNF formulas: DIMACS I/O, restriction, unit propagation, 2-SAT, brute force.

Literals are signed DIMACS integers (variable v is ``v``/``-v``). A clause
is its tuple of literals; a zero-literal clause is the falsified clause
(bottom).

The 3-SAT branching works on a ``Node``: a formula's clauses, indexed once
as per-literal clause bitsets (``Formula.lit_masks``), under an assignment
and 3->2 replacements. ``unit_closure`` is the one unit-propagation loop,
over a node's ints; ``propagate`` wraps its result in a new node. At a
node, a clause is named by its index in that formula, the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np


class DimacsError(ValueError):
    """Malformed DIMACS input; message carries the offending line number."""


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals."""

    lits: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.lits)

    @property
    def is_bottom(self) -> bool:
        return not self.lits

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def __str__(self) -> str:
        return "(" + " ".join(str(l) for l in self.lits) + ")" if self.lits else "(bot)"


def clause(lits: Iterable[int]) -> Clause:
    lits = tuple(lits)
    if len({abs(l) for l in lits}) != len(lits):
        raise ValueError("duplicate variable in clause: %r" % (lits,))
    return Clause(lits)


@dataclass(frozen=True)
class Formula:
    """A CNF over variables 1..n with clauses in a fixed order."""

    n: int
    clauses: tuple[Clause, ...]

    def width(self) -> int:
        return max((c.width for c in self.clauses), default=0)

    @cached_property
    def has_bottom(self) -> bool:
        return any(not c.lits for c in self.clauses)

    def variables(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c.lits}

    @cached_property
    def lit_masks(self) -> dict[int, int]:
        """Per literal of variables 1..n, the clauses containing it as a
        bitset (bit i for clause i). Built on first use."""
        masks = {l: 0 for v in range(1, self.n + 1) for l in (v, -v)}
        for i, c in enumerate(self.clauses):
            for l in c.lits:
                masks[l] |= 1 << i
        return masks

    @cached_property
    def byte_sat_tables(self) -> tuple[tuple[int, ...], ...]:
        """Clause bitsets satisfied by each byte of an assignment word.

        In a word, bit v-1 is the value of variable v. Table j maps the byte
        of variables 8j+1..8j+8 to the set of clauses (bit i for clause i)
        that those eight values satisfy, so the clauses a word satisfies are
        the union of one entry per byte. Built on first use.
        """
        masks = self.lit_masks
        return byte_tables([(masks[-v], masks[v]) for v in range(1, self.n + 1)])

    @cached_property
    def clause_flips(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per clause, in literal order, ``(bit, sets)`` for each literal l:
        the word bit (1 << v-1) of l's variable and ``lit_masks[l]``, the
        clauses that setting l true satisfies. Built on first use."""
        masks = self.lit_masks
        return tuple(tuple((1 << (abs(l) - 1), masks[l]) for l in c.lits) for c in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


def byte_tables(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Per-byte union tables of a word whose bit i contributes ``pairs[i]``:
    the first value when the bit is 0, the second when it is 1. Table j maps
    the byte of bits 8j..8j+7 to the union of their contributions, so a
    word's union is the union of one entry per byte; every table has 256
    entries, and a bit past the pairs contributes nothing."""
    tables = []
    for base in range(0, len(pairs), 8):
        tab = [0]
        for off, on in pairs[base : base + 8]:
            tab = [t | off for t in tab] + [t | on for t in tab]
        tables.append(tuple(tab * (256 // len(tab))))
    return tuple(tables)


def formula(n: int, clause_lits: Iterable[Iterable[int]]) -> Formula:
    cs = []
    for lits in clause_lits:
        c = clause(lits)
        for l in c.lits:
            if abs(l) > n or abs(l) < 1:
                raise ValueError("literal %d out of range 1..%d" % (l, n))
        cs.append(c)
    return Formula(n, tuple(cs))


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF. Duplicate literals are dropped; tautologies rejected.

    A line starting with ``%`` ends the clause list, as in SATLIB files.
    """
    n = m = None
    clauses: list[Clause] = []
    cur: list[int] = []
    cur_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # SATLIB trailer ("%" then "0"): the clauses have ended
        if line.startswith("p"):
            if n is not None:
                raise DimacsError("line %d: duplicate header" % lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("line %d: malformed header %r" % (lineno, line))
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("line %d: malformed header %r" % (lineno, line))
            if n < 0 or m < 0:
                raise DimacsError("line %d: negative header counts" % lineno)
            continue
        if n is None:
            raise DimacsError("line %d: clause before header" % lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError("line %d: bad token %r" % (lineno, tok))
            if lit == 0:
                seen: list[int] = []
                for l in cur:
                    if -l in seen:
                        raise DimacsError(
                            "line %d: tautological clause %r" % (lineno, cur)
                        )
                    if l not in seen:
                        seen.append(l)
                clauses.append(Clause(tuple(seen)))
                cur = []
                cur_line = None
            else:
                if abs(lit) > n:
                    raise DimacsError(
                        "line %d: variable %d exceeds declared %d" % (lineno, abs(lit), n)
                    )
                if cur_line is None:
                    cur_line = lineno
                cur.append(lit)
    if cur:
        raise DimacsError("line %d: unterminated clause" % cur_line)
    if n is None:
        raise DimacsError("line 1: missing header")
    if len(clauses) != m:
        raise DimacsError(
            "line 1: header declares %d clauses, found %d" % (m, len(clauses))
        )
    return Formula(n, tuple(clauses))


def serialize_dimacs(f: Formula) -> str:
    lines = ["p cnf %d %d" % (f.n, len(f.clauses))]
    for c in f.clauses:
        lines.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(lines) + "\n"


def lit_values(lits: Iterable[int], bits: Iterable[int]) -> dict[int, int]:
    """The variable values that give each literal its truth bit."""
    return {abs(l): b if l > 0 else 1 - b for l, b in zip(lits, bits)}


def restrict(f: Formula, alpha: Mapping[int, int]) -> Formula:
    """Fix variables per alpha: drop satisfied clauses, strip false literals.

    A fully falsified clause becomes bottom.
    """
    out: list[Clause] = []
    for c in f.clauses:
        sat = False
        lits: list[int] = []
        for l in c.lits:
            v = abs(l)
            if v in alpha:
                if (alpha[v] == 1) == (l > 0):
                    sat = True
                    break
            else:
                lits.append(l)
        if not sat:
            out.append(c if len(lits) == len(c.lits) else Clause(tuple(lits)))
    return Formula(f.n, tuple(out))


def _first_falsified(f: Formula, alpha: Mapping[int, int]) -> Optional[int]:
    """Index of the first clause alpha falsifies (unset variables read 0)."""
    for i, c in enumerate(f.clauses):
        if not any((alpha.get(abs(l), 0) == 1) == (l > 0) for l in c.lits):
            return i
    return None


def satisfies(f: Formula, alpha: Mapping[int, int]) -> bool:
    return _first_falsified(f, alpha) is None


class VerificationError(RuntimeError):
    """A solver returned an assignment that falsifies its input formula."""


def verify_model(f: Formula, alpha: Mapping[int, int]) -> None:
    """Raise VerificationError unless alpha satisfies f (unset variables read 0).

    An explicit check, so that ``python -O`` keeps it.
    """
    i = _first_falsified(f, alpha)
    if i is not None:
        raise VerificationError("assignment falsifies clause %d %s" % (i + 1, f.clauses[i]))


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Node(NamedTuple):
    """A formula of width <= 3 under an assignment and 3->2 replacements,
    as bitsets over root's clauses (bit i for clause i): ``sat``, the
    satisfied clauses; ``lo``/``hi``, the bit-planes of each clause's count
    of free literals (read outside ``sat`` only); ``fixed``, bit v for each
    assigned variable v; ``masks``, root's ``lit_masks`` less the clauses a
    replacement removed the literal from. A node is never changed: a step
    makes a new one, so a child owns a few ints and needs no undo."""

    root: Formula
    full: int
    sat: int
    lo: int
    hi: int
    fixed: int
    masks: dict[int, int]

    @staticmethod
    def of(f: Formula) -> "Node":
        """The node of f, no variable assigned."""
        if f.width() > 3:
            raise ValueError("a node holds clauses of width <= 3, got %d" % f.width())
        lo = sum((c.width & 1) << i for i, c in enumerate(f.clauses))
        hi = sum((c.width >> 1) << i for i, c in enumerate(f.clauses))
        return Node(f, (1 << len(f.clauses)) - 1, 0, lo, hi, 0, f.lit_masks)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The root's clauses, by index."""
        return self.root.clauses

    @property
    def has_bottom(self) -> bool:
        return self.lo | self.hi | self.sat != self.full

    @property
    def wide(self) -> int:
        """The clauses with three free literals."""
        return self.lo & self.hi & ~self.sat

    @property
    def pairs(self) -> int:
        """The clauses with two free literals."""
        return self.hi & ~(self.lo | self.sat)

    def lits(self, i: int) -> tuple[int, ...]:
        """The literals of clause i at the node, in clause order."""
        fixed, masks = self.fixed, self.masks
        return tuple([l for l in self.root.clauses[i].lits if not fixed >> abs(l) & 1 and masks[l] >> i & 1])

    def assign(self, alpha: Mapping[int, int]) -> "Node":
        """The node with alpha's variables set, unpropagated."""
        return propagate(self, alpha, False)[0]

    def remove(self, s: int, lit: int) -> "Node":
        """Free literal lit removed from clause s."""
        bit = 1 << s
        masks = dict(self.masks)
        masks[lit] &= ~bit
        root, full, sat, lo, hi, fixed, _ = self
        return Node(root, full, sat, lo ^ bit, hi ^ (bit & ~lo), fixed, masks)

    def formula(self) -> Formula:
        """The unsatisfied clauses at the node, in root order."""
        live = bit_indices(self.full & ~self.sat)
        return Formula(self.root.n, tuple(Clause(self.lits(i)) for i in live))


def propagate(node: Node, alpha: Mapping[int, int], units: bool = True) -> tuple[Node, dict[int, int], bool]:
    """Unit-propagation closure of alpha at the node: the node reached, the
    fixes (alpha first, then each unit) and whether a clause was falsified.
    With ``units`` false, alpha alone is assigned."""
    fixes = dict(alpha)
    sat, lo, hi, fixed, conflict = unit_closure(node, fixes, units)
    return Node(node.root, node.full, sat, lo, hi, fixed, node.masks), fixes, conflict


def unit_closure(node: Node, fixes: dict[int, int], units: bool = True) -> tuple[int, int, int, int, bool]:
    """The unit-propagation loop: the node's ``(sat, lo, hi, fixed)`` after
    assigning ``fixes`` and, with ``units``, every unit it leaves, each
    appended to ``fixes`` in place; and whether a clause was falsified. The
    next unit is the lowest set bit of (count 1) & ~sat, and propagation
    stops at the first literal that leaves a count 0 outside ``sat``. A
    node that already has a falsified clause is a conflict, nothing
    assigned."""
    root, full, sat, lo, hi, fixed, masks = node
    if units and lo | hi | sat != full:
        return sat, lo, hi, fixed, True
    clauses = root.clauses
    for v, b in fixes.items():
        if fixed >> v & 1:
            # a variable assigned at the node is in no clause there, as
            # after a restriction: it is fixed again without effect
            continue
        fixed |= 1 << v
        false = masks[-v if b == 1 else v]
        sat |= masks[v if b == 1 else -v]
        hi ^= false & ~lo
        lo ^= false
    while True:
        hs = hi | sat
        conflict = lo | hs != full
        unit = lo & ~hs
        if conflict or not unit or not units:
            return sat, lo, hi, fixed, conflict
        i = (unit & -unit).bit_length() - 1
        for l in clauses[i].lits:
            if not fixed >> abs(l) & 1 and masks[l] >> i & 1:
                break
        # the unit's literal, assigned as alpha's were above
        v = abs(l)
        fixes[v] = 1 if l > 0 else 0
        fixed |= 1 << v
        false = masks[-l]
        sat |= masks[l]
        hi ^= false & ~lo
        lo ^= false


# ---------------------------------------------------------------------------
# 2-SAT via implication-graph strong connectivity


def solve_2sat(f: Formula) -> Optional[dict[int, int]]:
    """Decide a CNF of width <= 2. Returns a total assignment or None (UNSAT).

    Implication graph + Tarjan SCC; variables absent from the formula get 0.
    """
    if f.has_bottom:
        raise ValueError("bottom clause present")
    if f.width() > 2:
        raise ValueError("not a 2-CNF (width %d)" % f.width())

    # node encoding: literal l -> 2*var + (0 if positive else 1), so the
    # node of -l is 2*var + (1 if l is positive else 0)
    adj: dict[int, list[int]] = {}
    for c in f.clauses:
        # (a) is the edge -a -> a; (a b) the edges -a -> b and -b -> a
        a, b = c.lits[0], c.lits[-1]
        for x, y in ((a, b), (b, a))[: c.width]:
            adj.setdefault(2 * abs(x) + (x > 0), []).append(2 * abs(y) + (y < 0))

    # iterative Tarjan: a frame is a node and the iterator over its
    # successors, and a node is indexed when its frame first comes on top;
    # a node with an index and no component is on the stack
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    ncomp = 0
    for start in sorted(2 * v + b for v in f.variables() for b in (0, 1)):
        if start in index:
            continue
        work = [(start, iter(adj.get(start, ())))]
        while work:
            x, succs = work[-1]
            if x not in index:
                index[x] = low[x] = len(index)
                stack.append(x)
            for y in succs:
                if y not in index:
                    work.append((y, iter(adj.get(y, ()))))
                    break
                if y not in comp:
                    low[x] = min(low[x], index[y])
            else:
                work.pop()
                if low[x] == index[x]:
                    while True:
                        y = stack.pop()
                        comp[y] = ncomp
                        if y == x:
                            break
                    ncomp += 1
                if work:
                    px = work[-1][0]
                    low[px] = min(low[px], low[x])

    assign: dict[int, int] = {v: 0 for v in range(1, f.n + 1)}
    for v in sorted(f.variables()):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        # Tarjan component ids are reverse-topological: later-closed component
        # has a larger id and no path back, so pick the side with smaller id.
        assign[v] = 1 if comp[2 * v] < comp[2 * v + 1] else 0
    return assign


# ---------------------------------------------------------------------------
# exhaustive oracle

BRUTE_FORCE_LIMIT = 30


def brute_force_sat(f: Formula) -> Optional[dict[int, int]]:
    """Exhaustive oracle: first satisfying assignment in lexicographic order.

    Assignments are ordered as bit strings x1 x2 ... xn (x1 most significant).
    Guarded at n <= 30; evaluation is vectorised in chunks.
    """
    n = f.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError("brute force guard: n=%d > %d" % (n, BRUTE_FORCE_LIMIT))
    if f.has_bottom:
        return None
    total = 1 << n
    chunk = 1 << min(n, 20)
    used = f.variables()
    for base in range(0, total, chunk):
        idx = np.arange(base, min(base + chunk, total), dtype=np.int64)
        # each literal's truth over the chunk, one bit plane per variable
        truth = {}
        for v in used:
            plane = ((idx >> (n - v)) & 1).astype(bool)
            truth[v], truth[-v] = plane, ~plane
        ok = np.ones(idx.shape, dtype=bool)
        for c in f.clauses:
            cs = np.zeros(idx.shape, dtype=bool)
            for l in c.lits:
                cs |= truth[l]
            ok &= cs
            if not ok.any():
                break
        if ok.any():
            w = int(idx[int(np.argmax(ok))])
            return {v: (w >> (n - v)) & 1 for v in range(1, n + 1)}
    return None


def hamming(a: int, b: int) -> int:
    """Hamming distance between two words packed as ints."""
    return (a ^ b).bit_count()
