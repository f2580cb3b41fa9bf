"""Covering codes: hypercube codes, product codes, radius-indexed families.

Words are ints; bit i of a factor's word is coordinate i, and factors are
packed low-to-high in factor order. Greedy set cover picks the center whose
ball covers the most uncovered words (ties break to the smallest packed
value); the marginal-coverage counts are computed for all candidates at once
by an XOR correlation via the Walsh-Hadamard transform. The transform is the
constant-geometry form over two buffers: every stage reads adjacent pairs of
one buffer and writes their sums and differences to the two halves of the
other, so each stage is two whole-array operations and makes no temporaries.
It is exact in float64: every intermediate value is an integer, a signed sum
over part of the input, and by Cauchy-Schwarz and Parseval each is at most
n * sqrt(|U| * V) for n = 2^width words, |U| uncovered words and a ball of V
words. That is at most 2^48 at width 24, below 2^53.

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product as iproduct
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .chains import SolutionSpace

log = logging.getLogger(__name__)

DIRECT_CUBE_LIMIT = 24
BLOCK_WIDTH = 20
POWER_WIDTH_LIMIT = 22
EXHAUSTIVE_VERIFY_LIMIT = 20


class CoverError(ValueError):
    pass


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

    def factor_word_lists(self) -> list[tuple[int, ...]]:
        """Per packed sub-factor (cube, then each chain space), its word set."""
        out: list[tuple[int, ...]] = []
        for f in self.factors:
            if isinstance(f, CubeFactor):
                out.append(tuple(range(1 << f.width)))
            else:
                for s in f.spaces:
                    out.append(s.words)
        return out

    def factor_widths(self) -> list[int]:
        out: list[int] = []
        for f in self.factors:
            if isinstance(f, CubeFactor):
                out.append(f.width)
            else:
                out.extend(s.width for s in f.spaces)
        return out

    def enumerate_words(self) -> Iterable[int]:
        lists = self.factor_word_lists()
        widths = self.factor_widths()
        offs = [0]
        for w in widths[:-1]:
            offs.append(offs[-1] + w)
        for combo in iproduct(*lists):
            word = 0
            for c, o in zip(combo, offs):
                word |= c << o
            yield word

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
    """
    in_ball = _popcounts(width) <= radius
    ball = np.flatnonzero(in_ball)
    ball_hat = _wht(in_ball.astype(np.float64))
    blocked = ~candidates
    uncovered = target.copy()
    centers: list[int] = []
    while uncovered.any() and (budget is None or len(centers) < budget):
        counts = _xor_correlate(uncovered, ball_hat)
        counts[blocked] = -1
        c = int(np.argmax(counts))
        if counts[c] <= 0:
            break
        centers.append(c)
        uncovered[ball ^ c] = False
    return centers, uncovered


# ---------------------------------------------------------------------------
# constructions


@functools.cache
def cover_cube(width: int, radius: int) -> CodeFamily:
    """Single-radius covering code for the full cube, greedy set cover.

    Memoized per process by (width, radius); ``cover_cube.__wrapped__``
    skips the memo for the call itself (blocks still go through it).
    """
    if width < 0 or radius < 0:
        raise CoverError("negative width or radius")
    if width == 0:
        return CodeFamily(0, {radius: (0,)}, "cube width 0")
    if radius >= width:
        return CodeFamily(width, {radius: (0,)}, "cube width %d, degenerate" % width)
    if width > DIRECT_CUBE_LIMIT:
        return _cover_cube_blocks(width, radius)
    n = 1 << width
    all_true = np.ones(n, dtype=bool)
    centers, uncovered = _greedy_cover(width, radius, all_true, all_true)
    if uncovered.any():
        raise CoverError("greedy cube cover failed (width %d radius %d)" % (width, radius))
    log.debug("cover_cube(%d, %d): %d centers", width, radius, len(centers))
    return CodeFamily(width, {radius: tuple(centers)}, "cube width %d" % width)


def _cover_cube_blocks(width: int, radius: int) -> CodeFamily:
    nb = -(-width // BLOCK_WIDTH)
    base, rem = divmod(width, nb)
    widths = [base + 1 if i < rem else base for i in range(nb)]
    # integer radii summing to `radius`, largest remainder apportionment
    quotas = [radius * w / width for w in widths]
    radii = [int(q) for q in quotas]
    short = radius - sum(radii)
    order = sorted(range(nb), key=lambda i: (-(quotas[i] - int(quotas[i])), i))
    for i in order[:short]:
        radii[i] += 1
    parts = [cover_cube(w, r) for w, r in zip(widths, radii)]
    return replace(
        product_code(parts), description="cube width %d (blocks %s)" % (width, widths)
    )


def product_code(codes: Sequence[CodeFamily]) -> CodeFamily:
    """Concatenate single-radius codes; radius adds, sizes multiply."""
    if not codes:
        raise CoverError("empty product")
    lists: list[tuple[int, ...]] = []
    total_r = 0
    offs: list[int] = []
    off = 0
    for fam in codes:
        rs = fam.radii()
        if len(rs) != 1:
            raise CoverError("product_code expects single-radius inputs")
        total_r += rs[0]
        lists.append(fam.entries[rs[0]])
        offs.append(off)
        off += fam.width
    centers = []
    for combo in iproduct(*lists):
        word = 0
        for c, o in zip(combo, offs):
            word |= c << o
        centers.append(word)
    return CodeFamily(off, {total_r: tuple(centers)}, "product of %d codes" % len(codes))


def ell_for(nu: int, k: int, lam: Fraction) -> int:
    """floor(-nu * log_{k-1}(lambda) + 2)."""
    return math.floor(-nu * math.log(lam) / math.log(k - 1) + 2)


def ell_cover_power(space: SolutionSpace, nu: int, k: int, lam: Fraction) -> CodeFamily:
    """Radius-indexed family jointly covering the nu-fold power of a space."""
    return ell_cover_spaces((space,) * nu, k, lam)


def ell_cover_spaces(
    spaces: Sequence[SolutionSpace], k: int, lam: Fraction
) -> CodeFamily:
    """Family over a product of isomorphic spaces sharing one characteristic.

    Deterministic greedy residual covering: radii ascend from 0 to ell, each
    radius takes greedily chosen centers up to the size budget implied by
    lambda^-nu / (k-1)^r, and the final radius finishes the residual. The
    budgets are logged, never asserted.

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
    width = sum(w for w, _ in shapes)
    if width > POWER_WIDTH_LIMIT:
        raise CoverError("power space guard: width %d > %d" % (width, POWER_WIDTH_LIMIT))
    ell = ell_for(nu, k, lam)
    n = 1 << width
    member = np.zeros(n, dtype=bool)
    offs = [0]
    for w, _ in shapes[:-1]:
        offs.append(offs[-1] + w)
    for combo in iproduct(*[words for _, words in shapes]):
        word = 0
        for c, o in zip(combo, offs):
            word |= c << o
        member[word] = True
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


def build_generalized_code(
    space: StructuredSpace,
    rho: Fraction,
    lams: Sequence[Fraction],
    k: int,
) -> CodeFamily:
    """Family for a cube-times-chains space: cube covered at ceil(rho*n'),
    each chain-group by its ell-family, all combined as product codes over
    every radius combination."""
    if not (0 < rho < Fraction(1, 2)):
        raise CoverError("rho must lie in (0, 1/2)")
    cube_widths = [f.width for f in space.factors if isinstance(f, CubeFactor)]
    if len(cube_widths) > 1:
        raise CoverError("at most one cube factor")
    powers = [f for f in space.factors if isinstance(f, PowerFactor)]
    if len(powers) != len(lams):
        raise CoverError("need one characteristic value per chain factor")

    part_families: list[CodeFamily] = []
    power_pos = 0
    for f in space.factors:
        if isinstance(f, CubeFactor):
            if f.width == 0:
                continue
            r0 = math.ceil(rho * f.width)
            part_families.append(cover_cube(f.width, r0))
        else:
            part_families.append(ell_cover_spaces(f.spaces, k, lams[power_pos]))
            power_pos += 1
    if not part_families:
        raise CoverError("empty space")

    entries: dict[int, list[int]] = {}
    seen: dict[int, set[int]] = {}
    radius_choices = [fam.radii() for fam in part_families]
    for combo in iproduct(*radius_choices):
        parts = [
            CodeFamily(fam.width, {r: fam.entries[r]})
            for fam, r in zip(part_families, combo)
        ]
        if any(not p.entries[r] for p, r in zip(parts, combo)):
            continue
        prod = product_code(parts)
        r_total = sum(combo)
        bucket = entries.setdefault(r_total, [])
        dedupe = seen.setdefault(r_total, set())
        for c in prod.entries[r_total]:
            if c not in dedupe:
                dedupe.add(c)
                bucket.append(c)
    return CodeFamily(
        space.width,
        {r: tuple(cs) for r, cs in entries.items()},
        "generalized family over width %d" % space.width,
    )


# ---------------------------------------------------------------------------
# independent verification


@dataclass
class CoverageReport:
    ok: bool
    checked: int
    sampled: bool
    uncovered_example: Optional[int] = None
    sizes: dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def verify_coverage(
    family: CodeFamily,
    space: StructuredSpace,
    exhaustive_limit: int = EXHAUSTIVE_VERIFY_LIMIT,
    samples: int = 100_000,
    seed: int = 12345,
) -> CoverageReport:
    """Check every (or, above the width limit, sampled) space word is within
    some entry's radius of one of its centers. Independent of construction."""
    sizes = {r: len(cs) for r, cs in family.entries.items()}
    sampled = space.width > exhaustive_limit
    if sampled:
        words = _sample_words(space, samples, seed)
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
    return CoverageReport(ok, len(words), sampled, example, sizes)


def _sample_words(space: StructuredSpace, samples: int, seed: int) -> np.ndarray:
    from .generator import Lcg

    rng = Lcg(seed)
    lists = space.factor_word_lists()
    widths = space.factor_widths()
    offs = [0]
    for w in widths[:-1]:
        offs.append(offs[-1] + w)
    out = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        word = 0
        for ws, o in zip(lists, offs):
            word |= ws[rng.below(len(ws))] << o
        out[i] = word
    return out
