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

A code is a pure function of its shape, so ``cover_cube`` (keyed by width and
radius) and ``ell_cover_spaces`` (keyed by the spaces' widths and words, k and
lambda; variable names are left out) keep every code they build for the life
of the process, and a batch of solves builds each code once. The memo is
filled only by calls, never at import. Families are frozen, so a memoized
family is the same for every caller.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, product as iproduct
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .chains import SolutionSpace

log = logging.getLogger(__name__)

BLOCK_WIDTH = 20
# above every code the benchmark builds and the 144,388 centers of the DLS code
# of a random 4-CNF at n = 28, whose ball search took 0.8 ms per center; at
# that rate a code of this size is about an hour of ball search
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


@dataclass(frozen=True)
class CodeFamily:
    """Radius-indexed sets of centers jointly covering a space.

    Immutable: ``entries`` is a read-only copy of the mapping given.
    """

    width: int
    entries: Mapping[int, tuple[int, ...]]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def radii(self) -> list[int]:
        return sorted(self.entries)

    def size(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def dump(self) -> str:
        lines = ["# %s" % (self.description or "covering code, width %d" % self.width)]
        for r in self.radii():
            for c in self.entries[r]:
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
    """Single-radius covering code for the full cube, greedy set cover; a
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
        code = product_code([cover_cube(w, r) for w, r in blocks])
        return replace(code, description="cube width %d (blocks %s)" % (width, [w for w, _ in blocks]))
    n = 1 << width
    all_true = np.ones(n, dtype=bool)
    centers, uncovered = _greedy_cover(width, radius, all_true, all_true)
    if uncovered.any():
        raise CoverError("greedy cube cover failed (width %d radius %d)" % (width, radius))
    log.debug("cover_cube(%d, %d): %d centers", width, radius, len(centers))
    return CodeFamily(width, {radius: tuple(centers)}, "cube width %d" % width)


def _balanced(count: int, cap: int) -> list[int]:
    """The fewest near-equal parts of at most cap summing to count, larger first."""
    nb = -(-count // cap)
    base, rem = divmod(count, nb)
    return [base + 1] * rem + [base] * (nb - rem)


def _cube_blocks(width: int, radius: int) -> list[tuple[int, int]]:
    """Balanced blocks of a cube wider than BLOCK_WIDTH with their radii;
    refused if their product code must exceed CODE_SIZE_LIMIT centers."""
    widths = _balanced(width, BLOCK_WIDTH)
    # integer radii summing to `radius`, largest remainder apportionment
    quotas = [radius * w / width for w in widths]
    radii = [int(q) for q in quotas]
    short = radius - sum(radii)
    order = sorted(range(len(widths)), key=lambda i: (-(quotas[i] - int(quotas[i])), i))
    for i in order[:short]:
        radii[i] += 1
    # a radius-r code of {0,1}^w has at least 2^w / V(w, r) centers (the
    # sphere-covering bound), so the product of these bounds is a lower bound
    # on the product code's size: an oversized code is refused before any
    # block is built
    least = math.prod(
        -(-(1 << w) // sum(math.comb(w, i) for i in range(r + 1))) for w, r in zip(widths, radii)
    )
    if least > CODE_SIZE_LIMIT:
        raise CoverError("code size guard: at least %d centers > %d" % (least, CODE_SIZE_LIMIT))
    return list(zip(widths, radii))


def cube_radius(width: int, k: int) -> int:
    """The free cube's radius ceil(width / k); first raises the code size
    guard if the cube's code must exceed CODE_SIZE_LIMIT centers."""
    radius = -(-width // k)
    if width > BLOCK_WIDTH and radius < width:
        _cube_blocks(width, radius)
    return radius


def product_code(families: Sequence[CodeFamily]) -> CodeFamily:
    """Radius-summing product of families.

    Every choice of one radius per family (skipping a choice with an empty
    entry) packs its centers, and files them under the sum of the radii;
    each radius keeps a center once, in first-seen order. Single-radius
    codes give one radius, with sizes multiplying. A product of more than
    CODE_SIZE_LIMIT centers (the product of the family sizes) is refused up front.
    """
    if not families:
        raise CoverError("empty product")
    if (size := math.prod(fam.size() for fam in families)) > CODE_SIZE_LIMIT:
        raise CoverError("code size guard: %d centers > %d" % (size, CODE_SIZE_LIMIT))
    entries: dict[int, dict[int, None]] = {}
    for combo in iproduct(*(fam.radii() for fam in families)):
        parts = [(fam.width, fam.entries[r]) for fam, r in zip(families, combo)]
        if all(words for _, words in parts):
            entries.setdefault(sum(combo), {}).update(dict.fromkeys(pack_words(parts)))
    codes = {r: tuple(cs) for r, cs in entries.items()}
    return CodeFamily(sum(fam.width for fam in families), codes, "product of %d codes" % len(families))


def ell_for(nu: int, k: int, lam: Fraction) -> int:
    """floor(-nu * log_{k-1}(lambda) + 2)."""
    return math.floor(-nu * math.log(lam) / math.log(k - 1) + 2)


def ell_cover_spaces(
    spaces: Sequence[SolutionSpace], k: int, lam: Fraction
) -> CodeFamily:
    """Family over a product of isomorphic spaces sharing one characteristic.

    Deterministic greedy residual covering: radii ascend from 0 to ell, each
    radius takes greedily chosen centers up to the size budget implied by
    lambda^-nu / (k-1)^r, and the final radius finishes the residual. The
    budgets are logged, never asserted. A power wider than BLOCK_WIDTH is the
    product of the families of balanced runs of whole spaces of at most
    BLOCK_WIDTH bits each.

    Memoized per process by the spaces' (width, words), k and lambda: the
    family does not depend on the variable names (``var_order``).
    """
    return _ell_cover_shapes(tuple((s.width, s.words) for s in spaces), k, lam)


# typed: a float lambda equal to a Fraction gives float size budgets, which
# may round differently, so the two must not share a family
@functools.lru_cache(maxsize=None, typed=True)
def _ell_cover_shapes(
    shapes: tuple[tuple[int, tuple[int, ...]], ...], k: int, lam: Fraction
) -> CodeFamily:
    """``ell_cover_spaces`` over (width, words) per space; memoized, and
    ``_ell_cover_shapes.__wrapped__`` builds without the memo."""
    nu = len(shapes)
    if nu == 0:
        raise CoverError("no spaces")
    if k < 3:
        raise CoverError("k must be >= 3")
    width = sum(w for w, _ in shapes)
    if width > BLOCK_WIDTH and nu > 1:
        runs = _balanced(nu, max(1, BLOCK_WIDTH // max(w for w, _ in shapes)))
        ends = list(accumulate(runs, initial=0))
        parts = [_ell_cover_shapes(shapes[a:b], k, lam) for a, b in zip(ends, ends[1:])]
        return replace(product_code(parts), description="ell-family nu=%d (runs %s)" % (nu, runs))
    ell = ell_for(nu, k, lam)
    member = np.zeros(1 << width, dtype=bool)
    member[np.fromiter(pack_words(shapes), dtype=np.int64)] = True
    uncovered = member.copy()
    entries: dict[int, tuple[int, ...]] = {}
    size_target = Fraction(1, 1) / lam**nu
    for r in range(ell + 1):
        budget = None if r == ell else max(1, math.ceil(size_target / (k - 1) ** r))
        centers, uncovered = _greedy_cover(width, r, uncovered, member, budget)
        entries[r] = tuple(centers)
        log.debug(
            "ell_cover r=%d: %d centers (budget %s), %d words left",
            r,
            len(centers),
            budget,
            int(uncovered.sum()),
        )
        if not uncovered.any():
            break
    if uncovered.any():
        raise CoverError("ell-family failed to cover the space")
    return CodeFamily(width, entries, "ell-family nu=%d ell=%d" % (nu, ell))


def build_generalized_code(space: StructuredSpace, lams: Sequence[Fraction], k: int) -> CodeFamily:
    """Family for a cube-times-chains space: cube covered at ceil(n'/k),
    each chain-group by its ell-family, combined by the radius-summing
    ``product_code``."""
    cube_widths = [f.width for f in space.factors if isinstance(f, CubeFactor)]
    if len(cube_widths) > 1:
        raise CoverError("at most one cube factor")
    powers = [f for f in space.factors if isinstance(f, PowerFactor)]
    if len(powers) != len(lams):
        raise CoverError("need one characteristic value per chain factor")

    lam_iter = iter(lams)
    families: list[CodeFamily] = []
    for f in space.factors:
        if isinstance(f, PowerFactor):
            families.append(ell_cover_spaces(f.spaces, k, next(lam_iter)))
        elif f.width:
            families.append(cover_cube(f.width, cube_radius(f.width, k)))
    return replace(product_code(families), description="generalized family over width %d" % space.width)


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
    some entry's radius of one of its centers. Independent of construction."""
    sampled = space.width > EXHAUSTIVE_VERIFY_LIMIT
    if sampled:
        words = _sample_words(space, samples)
    else:
        words = np.fromiter(space.enumerate_words(), dtype=np.int64)
    covered = np.zeros(words.shape, dtype=bool)
    for r in family.radii():
        for c in family.entries[r]:
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
