"""Covering codes: hypercube codes, product codes, radius-indexed families.

Words are ints; bit i of a factor's word is coordinate i, and factors are
packed low-to-high in factor order. Greedy set cover picks the center whose
ball covers the most uncovered words (ties break to the smallest packed
value). Each greedy level computes the marginal-coverage counts of all
candidates at once by an XOR correlation via the Walsh-Hadamard transform,
and then keeps them up to date: a pick lowers by one the count of every
candidate whose ball holds a word the pick newly covered. When that update
would touch more entries than two transforms cost, about (width + 1) *
2^(width + 1), the counts are recounted by a correlation instead, before
the next pick. At radius 0 a ball is its center, so the picks are the
uncovered candidates in ascending order and need no transform. The
transform is the constant-geometry form over two buffers: every stage reads
adjacent pairs of one buffer and writes their sums and differences to the
two halves of the other, so each stage is two whole-array operations and
makes no temporaries. Float64 is used only inside a correlation, and is
exact there: every intermediate value is an integer, a signed sum over part
of the input, and by Cauchy-Schwarz and Parseval each is at most
n * sqrt(|U| * V) <= 4^width for n = 2^width words, |U| uncovered words and a
ball of V words. A transform is at most BLOCK_WIDTH = 20 bits wide (2^40), or
one chain space of at most 24 bits (2^48), below 2^53. The correlation's
result is rounded to int64 counts, which the updates keep exact, so a level
picks the same centers as a recount at every pick would.

A family is built level by level, ascending by radius:
``CodeFamily.levels()`` builds a level only when the iteration reaches it,
so the local search builds no level beyond the radius of its first hit,
and ``entries``, ``radii()``, ``size()`` and ``dump()`` build every level.
A cube code builds its one greedy level when first read; an ell-family
builds greedy level r from the words its levels below r left uncovered,
which it keeps between calls; a product builds its level R from the factor
levels whose radii can sum to R, each the first time a choice needs it.
Forming a family builds nothing, and states lower bounds on its entries
(``least``) and distinct centers (``distinct``), so ``product_code``, the
one code size guard, refuses an oversized product before any level is built.

A code is a pure function of its shape, so ``cover_cube`` (keyed by width and
radius) and ``ell_cover_spaces`` (keyed by the spaces' widths and words, k and
lambda; variable names are left out) keep every code they build for the life
of the process. The memo holds the levels built so far: a memoized family
grows as its levels are built, and a batch of solves builds each level once.
The memo is filled only by calls, never at import. Families cannot be
changed from outside, so a memoized family is the same for every caller.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import accumulate, product as iproduct
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .chains import SolutionSpace

log = logging.getLogger(__name__)

BLOCK_WIDTH = 20
# above every code the benchmark builds and the 144,388 centers of the DLS code
# of a random 4-CNF at n = 28 (seed 0), whose solve takes about 0.11 ms per
# center (15.6 s on a 2-core x86-64 machine); at that rate a code of this size
# is about 8 minutes of ball search
CODE_SIZE_LIMIT = 1 << 22
EXHAUSTIVE_VERIFY_LIMIT = 20
VERIFY_SEED = 12345


class CoverError(ValueError):
    pass


def pack_words(parts: Sequence[tuple[int, Sequence[int]]]) -> Iterator[int]:
    """Every word of a product of (width, words) parts, one word per part,
    packed low-to-high in part order; the last part varies fastest.

    A part's words fit in its width, so the shifted fields are disjoint and
    their sum is their bitwise OR.
    """
    offs = accumulate((w for w, _ in parts), initial=0)
    return map(sum, iproduct(*[[c << o for c in words] for (_, words), o in zip(parts, offs)]))


@dataclass(frozen=True)
class CubeFactor:
    width: int
    variables: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class PowerFactor:
    """A product of (isomorphic) solution spaces, one per chain."""

    spaces: tuple[SolutionSpace, ...]

    @property
    def width(self) -> int:
        return sum(s.width for s in self.spaces)


Factor = CubeFactor | PowerFactor


@dataclass(frozen=True)
class StructuredSpace:
    factors: tuple[Factor, ...]

    @property
    def width(self) -> int:
        return sum(f.width for f in self.factors)

    def count_words(self) -> int:
        n = 1
        for f in self.factors:
            if isinstance(f, CubeFactor):
                n <<= f.width
            else:
                for s in f.spaces:
                    n *= len(s.words)
        return n

    def factor_parts(self) -> list[tuple[int, Sequence[int]]]:
        """(width, words) per packed sub-factor: a cube, or one chain space."""
        out: list[tuple[int, Sequence[int]]] = []
        for f in self.factors:
            if isinstance(f, CubeFactor):
                out.append((f.width, range(1 << f.width)))
            else:
                out.extend((s.width, s.words) for s in f.spaces)
        return out

    def enumerate_words(self) -> Iterable[int]:
        return pack_words(self.factor_parts())

    def coordinate_variables(self) -> tuple[Optional[int], ...]:
        """Bit position -> variable index (None when the factor is abstract)."""
        out: list[Optional[int]] = []
        for f in self.factors:
            if isinstance(f, CubeFactor):
                if f.variables is None:
                    out.extend([None] * f.width)
                else:
                    out.extend(f.variables)
            else:
                for s in f.spaces:
                    out.extend(s.var_order)
        return tuple(out)


Level = tuple[int, tuple[int, ...]]


class CodeFamily:
    """Radius-indexed sets of centers jointly covering a space, built level
    by level.

    A family is its levels built so far, ascending by radius, and a step
    that returns the next level, or None once every level is built. A
    family given its ``entries`` is built from the start. A step that
    raises leaves its state unchanged, so the next request repeats it.
    Nothing can be set from outside, and ``entries`` is a read-only view.
    ``least`` and ``distinct`` bound its entries and its distinct centers
    from below; by default they count the given entries.
    """

    __slots__ = ("width", "description", "least", "distinct", "_built", "_step")

    def __init__(
        self,
        width: int,
        entries: Optional[Mapping[int, Sequence[int]]] = None,
        description: str = "",
        step: Optional[Callable[[], Optional[Level]]] = None,
        least: Optional[int] = None,
        distinct: Optional[int] = None,
    ) -> None:
        built = sorted((r, tuple(cs)) for r, cs in (entries or {}).items())
        if least is None:
            least = sum(len(cs) for _, cs in built)
        if distinct is None:
            distinct = len({c for _, cs in built for c in cs})
        fields = (width, description, least, distinct, built, step)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeFamily):
            return NotImplemented
        return (self.width, self.description, self.entries) == (other.width, other.description, other.entries)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "CodeFamily(%d, %r, %r)" % (self.width, dict(self._built), self.description)

    def _grow(self) -> bool:
        """Build the next level; False once every level is built."""
        if self._step is None:
            return False
        level = self._step()
        if level is None:
            object.__setattr__(self, "_step", None)
            return False
        self._built.append(level)
        return True

    def levels(self, top: Optional[int] = None) -> Iterator[Level]:
        """(radius, centers) of every level of radius at most ``top`` (all
        when None), ascending; a level is built when the iteration reaches
        it. A family whose radii have gaps may build one level past ``top``
        to find that it is past."""
        i = 0
        while True:
            if i == len(self._built):
                # every level built so far has been yielded
                if top is not None and self._built and self._built[-1][0] >= top or not self._grow():
                    return
            level = self._built[i]
            if top is not None and level[0] > top:
                return
            yield level
            i += 1

    def built_size(self) -> int:
        """Centers of the levels built so far."""
        return sum(len(cs) for _, cs in self._built)

    def complete(self) -> bool:
        """Whether every level is built."""
        return self._step is None

    @property
    def entries(self) -> Mapping[int, tuple[int, ...]]:
        return MappingProxyType(dict(self.levels()))

    def radii(self) -> list[int]:
        return [r for r, _ in self.levels()]

    def size(self) -> int:
        return sum(len(cs) for _, cs in self.levels())

    def dump(self) -> str:
        lines = ["# %s" % (self.description or "covering code, width %d" % self.width)]
        for r, centers in self.levels():
            for c in centers:
                bits = "".join(str((c >> i) & 1) for i in range(self.width))
                lines.append("r %d %s" % (r, bits))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Walsh-Hadamard machinery


def _wht(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a 1-D float array whose
    length is a power of two, in natural order.

    Constant-geometry form: each stage writes the sums and the differences
    of adjacent pairs to the two halves of the other buffer. ``v`` is one of
    the two buffers and is overwritten; returns the buffer holding the
    transform.
    """
    half = v.shape[0] >> 1
    src, dst = v, np.empty_like(v)
    for _ in range(v.shape[0].bit_length() - 1):
        a, b = src[0::2], src[1::2]
        np.add(a, b, out=dst[:half])
        np.subtract(a, b, out=dst[half:])
        src, dst = dst, src
    return src


def _xor_correlate(u: np.ndarray, ball_hat: np.ndarray) -> np.ndarray:
    """out[c] = sum over x of u[x] * ball[x ^ c], given ball_hat = WHT(ball);
    float64 holding exact integers."""
    n = u.shape[0]
    v = _wht(u.astype(np.float64))
    v *= ball_hat
    v = _wht(v)
    v /= n
    return np.rint(v, out=v)


def _popcounts(width: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << width, dtype=np.int64))


def _greedy_cover(
    width: int,
    radius: int,
    target: np.ndarray,
    candidates: np.ndarray,
    budget: Optional[int] = None,
) -> tuple[list[int], np.ndarray]:
    """Greedy ball cover of `target` using centers from `candidates`.

    Returns the chosen centers and the residual uncovered mask. Stops early
    when the budget is exhausted or no candidate makes progress.

    At radius 0 a ball is its center, so the greedy pick is always the
    smallest uncovered candidate: the level takes them in ascending order
    without a transform.

    Above radius 0, counts[c] is the number of uncovered words in the ball
    around c, or negative for a blocked candidate. One XOR correlation
    gives the counts of the whole level; it is exact in float64 (module
    docstring), and its result is rounded to int64 counts. A pick that
    newly covers the words N lowers counts[x ^ b] by one for each x in N
    and each ball offset b, which keeps every count exact. That update
    costs |N| * |ball| and two transforms cost about (width + 1) *
    2^(width + 1), so a pick above that drops the counts instead, and they
    are recounted by a correlation before the next pick, if one follows.
    The update runs in chunks of at most 2^width indices, so it holds no
    more memory than the counts. Blocked candidates start at -1 and only
    fall. The counts are the same integers either way, so ``argmax`` picks
    the same center (ties to the smallest word) as a recount at every pick.
    """
    if radius == 0:
        picked = np.flatnonzero(target & candidates)[:budget]
        uncovered = target.copy()
        uncovered[picked] = False
        return picked.tolist(), uncovered
    in_ball = _popcounts(width) <= radius
    ball = np.flatnonzero(in_ball)
    ball_hat = _wht(in_ball.astype(np.float64))
    recount_cost = (width + 1) << (width + 1)
    rows = max(1, (1 << width) // ball.shape[0])  # newly covered words per update chunk
    blocked = ~candidates
    uncovered = target.copy()
    left = int(np.count_nonzero(uncovered))
    counts: Optional[np.ndarray] = None
    centers: list[int] = []
    while left and (budget is None or len(centers) < budget):
        if counts is None:
            counts = _xor_correlate(uncovered, ball_hat).astype(np.int64)
            counts[blocked] = -1
        c = int(np.argmax(counts))
        if counts[c] <= 0:
            break
        centers.append(c)
        new = ball ^ c
        new = new[uncovered[new]]
        uncovered[new] = False
        left -= new.shape[0]
        if new.shape[0] * ball.shape[0] > recount_cost:
            counts = None
        else:
            for i in range(0, new.shape[0], rows):
                np.subtract.at(counts, new[i : i + rows, None] ^ ball, 1)
    return centers, uncovered


# ---------------------------------------------------------------------------
# constructions


@functools.cache
def cover_cube(width: int, radius: int) -> CodeFamily:
    """Single-radius covering code for the full cube, greedy set cover built
    when first read, bounded by the sphere-covering bound 2^w / V(w, r); a
    cube wider than BLOCK_WIDTH is the product of balanced blocks.

    Memoized per process by (width, radius); ``cover_cube.__wrapped__``
    skips the memo for the call itself (blocks still go through it).
    """
    if width < 0 or radius < 0:
        raise CoverError("negative width or radius")
    if width == 0:
        return CodeFamily(0, {radius: (0,)}, "cube width 0")
    if radius >= width:
        return CodeFamily(width, {radius: (0,)}, "cube width %d, degenerate" % width)
    if width > BLOCK_WIDTH:
        blocks = _cube_blocks(width, radius)
        return product_code(
            [cover_cube(w, r) for w, r in blocks],
            "cube width %d (blocks %s)" % (width, [w for w, _ in blocks]),
        )

    def step() -> Optional[Level]:
        if fam.built_size():
            return None  # the one level is built
        all_true = np.ones(1 << width, dtype=bool)
        centers, uncovered = _greedy_cover(width, radius, all_true, all_true)
        if uncovered.any():
            raise CoverError("greedy cube cover failed (width %d radius %d)" % (width, radius))
        log.debug("cover_cube(%d, %d): %d centers", width, radius, len(centers))
        return radius, tuple(centers)

    least = -(-(1 << width) // _ball_size(width, radius))
    fam = CodeFamily(width, description="cube width %d" % width, step=step, least=least, distinct=least)
    return fam


def _balanced(count: int, cap: int) -> list[int]:
    """The fewest near-equal parts of at most cap summing to count, larger first."""
    nb = -(-count // cap)
    base, rem = divmod(count, nb)
    return [base + 1] * rem + [base] * (nb - rem)


def _ball_size(width: int, radius: int) -> int:
    """V(width, radius): the words of {0,1}^width within the radius of one."""
    return sum(math.comb(width, i) for i in range(radius + 1))


def _cube_blocks(width: int, radius: int) -> list[tuple[int, int]]:
    """Balanced blocks of a cube wider than BLOCK_WIDTH with their radii."""
    widths = _balanced(width, BLOCK_WIDTH)
    # integer radii summing to `radius`, largest remainder apportionment
    quotas = [radius * w / width for w in widths]
    radii = [int(q) for q in quotas]
    short = radius - sum(radii)
    order = sorted(range(len(widths)), key=lambda i: (-(quotas[i] - int(quotas[i])), i))
    for i in order[:short]:
        radii[i] += 1
    return list(zip(widths, radii))


def cube_radius(width: int, k: int) -> int:
    """The free cube's radius ceil(width / k)."""
    return -(-width // k)


def product_code(families: Sequence[CodeFamily], description: str = "") -> CodeFamily:
    """Radius-summing product of families, built level by level.

    Every choice of one radius per family (skipping a choice with an empty
    entry) packs its centers, and files them under the sum of the radii;
    each radius keeps a center once, in first-seen order, and the choices
    are taken in ``itertools.product`` order over the families' radii.
    Single-radius codes give one radius, with sizes multiplying. Level R
    takes from each family only radii up to R minus the other families'
    least radii, so a family's level is built the first time a choice of
    some level needs it.

    The product's ``distinct`` is prod_i d_i, d_i the ``distinct`` of
    family i: each choice of one distinct center per family packs a word of
    its own. Its ``least`` is max_j least_j * prod_{i != j} d_i: for any
    family j, each (radius, center) entry of j joined with one distinct
    center of every other family (taken at one of its radii) is filed under
    its own (radius, word), so the product holds at least size_j *
    prod_{i != j} d_i entries.

    The product of the family sizes bounds the product's size. The code
    size guard refuses the product when it is formed if the families'
    ``least`` bounds multiply to more than CODE_SIZE_LIMIT, and as soon as
    the sizes of their levels built so far do, when it is formed and again
    before each level is packed.
    """
    if not families:
        raise CoverError("empty product")
    families = tuple(families)

    def guard() -> None:
        count = math.prod(fam.built_size() for fam in families)
        if count > CODE_SIZE_LIMIT:
            raise CoverError("code size guard: %d centers > %d" % (count, CODE_SIZE_LIMIT))

    guard()
    bound = math.prod(fam.least for fam in families)
    if bound > CODE_SIZE_LIMIT:
        raise CoverError("code size guard: at least %d centers > %d" % (bound, CODE_SIZE_LIMIT))
    done = -1  # the last radius built; none yet

    def step() -> Optional[Level]:
        nonlocal done
        firsts = [next(fam.levels(), None) for fam in families]
        if None in firsts:
            return None  # a family without levels: no choice at all
        lows = [r for r, _ in firsts]
        radius = max(done + 1, sum(lows))
        while True:
            choices = [list(fam.levels(radius - sum(lows) + low)) for fam, low in zip(families, lows)]
            guard()
            words: dict[int, None] = {}
            for combo in iproduct(*choices):
                if sum(r for r, _ in combo) == radius and all(cs for _, cs in combo):
                    words.update(dict.fromkeys(pack_words([(fam.width, cs) for fam, (_, cs) in zip(families, combo)])))
            if words:
                done = radius
                return radius, tuple(words)
            if all(fam.complete() for fam in families) and radius >= sum(fam.radii()[-1] for fam in families):
                return None
            radius += 1

    width = sum(fam.width for fam in families)
    description = description or "product of %d codes" % len(families)
    ds = [fam.distinct for fam in families]
    least = max(fam.least * math.prod(ds[:j] + ds[j + 1 :]) for j, fam in enumerate(families))
    return CodeFamily(width, description=description, step=step, least=least, distinct=math.prod(ds))


def ell_for(nu: int, k: int, lam: Fraction) -> int:
    """floor(-nu * log_{k-1}(lambda) + 2)."""
    return math.floor(-nu * math.log(lam) / math.log(k - 1) + 2)


def ell_cover_spaces(
    spaces: Sequence[SolutionSpace], k: int, lam: Fraction
) -> CodeFamily:
    """Family over a product of isomorphic spaces sharing one characteristic.

    Deterministic greedy residual covering: radii ascend from 0 to ell, each
    radius takes greedily chosen centers up to the size budget implied by
    lambda^-nu / (k-1)^r, and the final radius finishes the residual. Each
    level is built when it is first asked for, from the words the levels
    below it left uncovered. The budgets are logged, never asserted. A
    power wider than BLOCK_WIDTH is the product of the families of balanced
    runs of whole spaces of at most BLOCK_WIDTH bits each.

    Memoized per process by the spaces' (width, words), k and lambda: the
    family does not depend on the variable names (``var_order``).
    """
    return _ell_cover_shapes(tuple((s.width, s.words) for s in spaces), k, lam)


Shapes = tuple[tuple[int, tuple[int, ...]], ...]


def _ell_runs(shapes: Shapes) -> Optional[list[Shapes]]:
    """The balanced runs of whole spaces a power wider than BLOCK_WIDTH is
    split into, or None for a power kept whole."""
    if sum(w for w, _ in shapes) <= BLOCK_WIDTH or len(shapes) == 1:
        return None
    runs = _balanced(len(shapes), max(1, BLOCK_WIDTH // max(w for w, _ in shapes)))
    ends = list(accumulate(runs, initial=0))
    return [shapes[a:b] for a, b in zip(ends, ends[1:])]


def _ell_budgets(nu: int, k: int, lam: Fraction) -> list[int]:
    """The size budgets of levels 0 .. ell-1; level ell has none."""
    if nu == 0:
        raise CoverError("no spaces")
    if k < 3:
        raise CoverError("k must be >= 3")
    size_target = Fraction(1, 1) / lam**nu
    return [max(1, math.ceil(size_target / (k - 1) ** r)) for r in range(ell_for(nu, k, lam))]


# typed: a float lambda equal to a Fraction gives float size budgets, which
# may round differently, so the two must not share a family
@functools.lru_cache(maxsize=None, typed=True)
def _ell_cover_shapes(shapes: Shapes, k: int, lam: Fraction) -> CodeFamily:
    """``ell_cover_spaces`` over (width, words) per space; memoized, and
    ``_ell_cover_shapes.__wrapped__`` builds without the memo. A whole
    power's ``distinct`` is its largest level bound: a level's centers are
    distinct."""
    budgets = _ell_budgets(len(shapes), k, lam)
    runs = _ell_runs(shapes)
    if runs is not None:
        return product_code(
            [_ell_cover_shapes(run, k, lam) for run in runs],
            "ell-family nu=%d (runs %s)" % (len(shapes), [len(run) for run in runs]),
        )
    width = sum(w for w, _ in shapes)
    r, member, uncovered = 0, None, None

    def step() -> Optional[Level]:
        nonlocal r, member, uncovered
        if member is None:
            member = np.ones(1, dtype=bool)  # an outer AND of the spaces' bitmaps
            for w, words in shapes:
                part = np.zeros(1 << w, dtype=bool)
                part[list(words)] = True
                member = np.logical_and.outer(part, member).ravel()
            uncovered = member
        if r and not uncovered.any():
            return None
        if r > len(budgets):
            raise CoverError("ell-family failed to cover the space")
        budget = budgets[r] if r < len(budgets) else None
        centers, left = _greedy_cover(width, r, uncovered, member, budget)
        log.debug("ell_cover r=%d: %d centers (budget %s), %d words left", r, len(centers), budget, int(left.sum()))
        r, uncovered = r + 1, left
        return r - 1, tuple(centers)

    least = _ell_level_least(shapes, k, lam)
    description = "ell-family nu=%d ell=%d" % (len(shapes), len(budgets))
    return CodeFamily(width, description=description, step=step, least=sum(least), distinct=max(least))


def _ell_level_least(shapes: Shapes, k: int, lam: Fraction) -> list[int]:
    """Per level, a lower bound on the centers of an ell-family of a power
    kept whole, computed without building it.

    Level r < ell takes centers up to its budget b_r while words stay
    uncovered (an uncovered word is a candidate, so the greedy never stops
    early), and a center covers at most V(w, r) words. The levels below r
    then cover at most sum_{i<r} b_i V(w, i) of the |M| members, so with
    U_r = |M| - sum_{i<r} b_i V(w, i), floored at 0, level r has at least
    min(b_r, ceil(U_r / V(w, r))) centers and level ell at least
    ceil(U_ell / V(w, ell)).
    """
    budgets = _ell_budgets(len(shapes), k, lam)
    width = sum(w for w, _ in shapes)
    left = math.prod(len(words) for _, words in shapes)
    out = []
    for r, b in enumerate(budgets + [None]):
        ball = _ball_size(width, r)
        least = -(-left // ball)
        out.append(least if b is None else min(b, least))
        if b is not None:
            left = max(0, left - b * ball)
    return out


def build_generalized_code(space: StructuredSpace, lams: Sequence[Fraction], k: int) -> CodeFamily:
    """Family for a cube-times-chains space: cube covered at ceil(n'/k),
    each chain-group by its ell-family, combined by the radius-summing
    ``product_code``, which refuses an oversized family before any level is
    built. The factors' levels are built when the product's levels need
    them."""
    if sum(isinstance(f, CubeFactor) for f in space.factors) > 1:
        raise CoverError("at most one cube factor")
    if sum(isinstance(f, PowerFactor) for f in space.factors) != len(lams):
        raise CoverError("need one characteristic value per chain factor")
    lam_iter = iter(lams)
    families: list[CodeFamily] = []
    for f in space.factors:
        if isinstance(f, PowerFactor):
            families.append(ell_cover_spaces(f.spaces, k, next(lam_iter)))
        elif f.width:
            families.append(cover_cube(f.width, cube_radius(f.width, k)))
    return product_code(families, "generalized family over width %d" % space.width)


# ---------------------------------------------------------------------------
# independent verification


@dataclass
class CoverageReport:
    ok: bool
    checked: int
    sampled: bool
    uncovered_example: Optional[int] = None


def verify_coverage(
    family: CodeFamily,
    space: StructuredSpace,
    samples: int = 100_000,
) -> CoverageReport:
    """Check every (or, above the width limit, sampled) space word is within
    some entry's radius of one of its centers. Independent of construction.

    Checking every word, a radius whose ball has fewer words than the space
    marks each center's ball (the ball's offsets XOR the center) in a bitmap
    over all 2^width words and reads the space's words from it; any other
    radius takes one pass over the checked words per center.
    """
    sampled = space.width > EXHAUSTIVE_VERIFY_LIMIT
    if sampled:
        words = _sample_words(space, samples)
    else:
        words = np.fromiter(space.enumerate_words(), dtype=np.int64)
        popcounts = _popcounts(space.width)
    covered = np.zeros(words.shape, dtype=bool)
    for r, centers in family.levels():
        ball = None if sampled else np.flatnonzero(popcounts <= r)
        # a center wider than the space has no bitmap entry; the pass over
        # the words still checks it
        wide = max(centers, default=0) >> space.width
        if ball is not None and ball.shape[0] < words.shape[0] and not wide:
            marked = np.zeros(1 << space.width, dtype=bool)
            rows = max(1, (1 << space.width) // ball.shape[0])  # centers per chunk
            ints = np.array(centers, dtype=np.int64)
            for i in range(0, ints.shape[0], rows):
                marked[ints[i : i + rows, None] ^ ball] = True
            covered |= marked[words]
        else:
            for c in centers:
                covered |= np.bitwise_count(words ^ c) <= r
        if covered.all():
            break
    ok = bool(covered.all())
    example = None if ok else int(words[int(np.argmin(covered))])
    return CoverageReport(ok, len(words), sampled, example)


def _sample_words(space: StructuredSpace, samples: int) -> np.ndarray:
    from .generator import Lcg

    rng = Lcg(VERIFY_SEED)
    parts = space.factor_parts()
    offs = list(accumulate((w for w, _ in parts), initial=0))
    out = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        word = 0
        for (_, ws), o in zip(parts, offs):
            word |= ws[rng.below(len(ws))] << o
        out[i] = word
    return out
