"""Probability mass functions on finite alphabets.

Constructors for the null and worst-case alternative distributions, the
distances and divergences used to define alternative sets, and the
chi-square functional that drives the missed-detection exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Pmf",
    "AlphabetSizeError",
    "DegenerateAlternativeError",
    "SupportError",
    "FDivConditionReport",
    "uniform",
    "biuniform_worst_case",
    "permuted_worst_case",
    "tv_distance",
    "chi_square_functional",
    "likelihood_ratio_bound",
    "f_divergence",
    "check_fdiv_conditions",
    "f_kl",
    "f_chi2",
    "f_tv",
]

# Normalization drift up to _SUM_TOL is accepted as-is; drift up to
# _RENORM_TOL is rescaled away; anything larger is rejected so that a
# buggy caller cannot hide behind silent renormalization.
_SUM_TOL = 1e-12
_RENORM_TOL = 1e-9
_GUIDE_BITS = 14  # the smallest inverse-CDF guide: 2^14 bins, 128 KB per table


class AlphabetSizeError(ValueError):
    """The alphabet must contain at least two symbols."""


class DegenerateAlternativeError(ValueError):
    """The requested alternative distribution has empty support."""


class SupportError(ValueError):
    """Absolute-continuity violation: q puts mass where p has none."""


class Pmf:
    """A probability mass function on the alphabet {1, ..., m}.

    Entries are non-negative and sum to one within 1e-12.  `Pmf(probs)`
    keeps a checked copy of the caller's array and finds its level census
    `groups` on first read; `uniform` and `biuniform_worst_case` build a
    source from that census alone, in O(1) in m, and repeat it into
    `probs` on first use.  Either way, `index` is found from `groups` and
    `probs` on first read.  The samplers that read these per-symbol arrays
    build them before any stream draws.  Instances are immutable and every
    array is read-only, so instances can be shared freely across threads.
    """

    def __init__(self, probs) -> None:
        """Check and keep, read-only, a copy of the caller's probabilities."""
        probs = np.array(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 2:
            raise AlphabetSizeError(
                f"alphabet needs at least 2 symbols, got shape {probs.shape}"
            )
        self.__dict__.update(m=probs.size, probs=_checked(probs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Pmf is immutable: cannot set {name}")

    @cached_property
    def probs(self) -> np.ndarray:
        """Each symbol's probability; a census source repeats its levels
        on first use."""
        return _read_only(np.repeat(*self.groups))

    @property
    def support_size(self) -> int:
        """Number of symbols carrying positive mass (the k of a restricted null)."""
        levels, sizes = self.groups
        return int(sizes[levels > 0].sum())

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(levels, sizes): the distinct probabilities in order of first
        appearance, and each one's number of symbols.  A census source is
        built with them; an array's are found on first read, by one
        `np.unique` of probs."""
        levels, first, sizes = np.unique(self.probs, return_index=True, return_counts=True)
        order = np.argsort(first)
        return _read_only(levels[order]), _read_only(sizes[order])

    @cached_property
    def index(self) -> np.ndarray:
        """Each symbol's position in levels, as intp, found on first read
        by the same search of probs for every source."""
        levels, _ = self.groups
        order = np.argsort(levels)
        return _read_only(order[np.searchsorted(levels, self.probs, sorter=order)])

    @cached_property
    def inverse_cdf(self) -> _GuidedCdf:
        """Guided inverse-CDF table of probs, with at least 4 guide bins per
        symbol; built once per instance."""
        # a sum drifting within _SUM_TOL must neither overshoot the guide
        # nor leave u room to reach a zero-mass tail
        cdf = np.minimum(np.cumsum(self.probs), 1.0)
        cdf[np.flatnonzero(self.probs)[-1]:] = 1.0
        return _GuidedCdf([(0, cdf)], None, max(_GUIDE_BITS, (4 * self.m - 1).bit_length()), np.int32)

    def __repr__(self) -> str:
        return f"Pmf({np.array2string(self.probs, threshold=8)})"


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def _checked(x: np.ndarray, sizes: np.ndarray | None = None) -> np.ndarray:
    """x, read-only, once the probabilities x of one symbol each, or of
    sizes[i] symbols each, are finite and non-negative and sum to 1 within
    1e-12; a sum off by up to 1e-9 is rescaled to 1 (in a new array)."""
    # two reductions: a NaN or negative entry fails the min (so -inf never
    # meets +inf in the sum), and a +inf makes the sum inf
    total = float(x.sum() if sizes is None else x @ sizes) if x.min() >= 0.0 else math.nan
    if not math.isfinite(total):
        raise ValueError("probabilities must be finite and non-negative")
    if abs(total - 1.0) > _SUM_TOL:
        if abs(total - 1.0) > _RENORM_TOL:
            raise ValueError(f"probabilities sum to {total}, too far from 1")
        x = x / total
    return _read_only(x)


def _walk_up(keys: np.ndarray, end: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{k : keys[k] <= x} for each x, from a guide's guess end at or below
    it; keys are sorted and the closing key lies above every x."""
    while (up := keys[end] <= x).any():
        end += up
    return end


class _GuidedCdf:
    """Discrete inversion at uniform u < 1 on the 2^-53 grid (Chen & Asau's
    guide table): table t = (lo, cdf), whose cdf closes at 1, maps u to
    lo + #{k : cdf[k] <= u}.  Column j of the last axis of out reads table
    index[j]; with no index, every column reads table 0.

    A guide over 2^bits equal bins of u per table holds the value itself
    for bins free of breakpoints, and -1 - (index of the bin's first key
    in the joined keys) for the rest, which walk up from there.
    """

    def __init__(self, tables: Sequence[tuple[int, np.ndarray]], index: np.ndarray | None,
                 bits: int, dtype: type = np.int64) -> None:
        assert bits <= 32, "bins are read from at most 32-bit slices"
        bins = 1 << bits
        self.bits = bits
        self.keys = np.concatenate([cdf for _, cdf in tables])
        self.values = np.concatenate([lo + np.arange(cdf.size) for lo, cdf in tables])
        self.guide = np.empty((len(tables), bins), dtype=dtype)
        at = 0
        for guide, (lo, cdf) in zip(self.guide, tables):
            v = cdf * bins  # exact; bin j is [j, j + 1) in units of v
            guide[:] = lo + np.repeat(np.arange(cdf.size), np.diff(np.ceil(v), prepend=0).astype(np.intp))
            inside = np.floor(v[v % 1 > 0]).astype(np.intp)  # bins with a breakpoint inside
            guide[inside] = (lo - 1 - at) - guide[inside]
            at += cdf.size
        self.guide = self.guide.reshape(-1)
        self.column = None if index is None else index * bins

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill out (the guide's dtype) with the values at one u per cell,
        bits first: the bin of u from the top of a 16- or 32-bit slice of a
        raw word, and where the bin holds a breakpoint the other 53 - bits
        bits of u from the top of one more word.  Given its bin, u is uniform
        on the bin's points of the 2^-53 grid, so the law is exact when raw
        words hold 64 random bits (Philox, PCG64; not MT19937's 32)."""
        width = 16 if self.bits <= 16 else 32
        # sliced little-endian, so the stream is the same on every platform
        raw = rng.bit_generator.random_raw(-(-out.size * width // 64)).astype("<u8", copy=False)
        j = raw.view(f"<u{width // 8}")[:out.size].reshape(out.shape) >> (width - self.bits)
        if self.column is not None:
            j = j + self.column
        np.take(self.guide, j, out=out, mode="clip")  # j is in range; "raise" would buffer out
        flat = out.reshape(-1)
        walk = np.flatnonzero(flat < 0)
        if walk.size:
            low = rng.bit_generator.random_raw(walk.size) >> (11 + self.bits)
            u = (j.reshape(-1)[walk] & ((1 << self.bits) - 1)) * 2.0**-self.bits + low * 2.0**-53
            flat[walk] = self.values[_walk_up(self.keys, -1 - flat[walk], u)]
        return out


def _census(levels: list[float], sizes: list[int]) -> Pmf:
    """A Pmf of sizes[i] symbols at levels[i], in symbol order, built from
    its census alone: distinct levels, in order of first appearance."""
    sizes = _read_only(np.array(sizes, dtype=np.intp))
    pmf = object.__new__(Pmf)
    pmf.__dict__.update(m=int(sizes.sum()), groups=(_checked(np.array(levels, dtype=np.float64), sizes), sizes))
    return pmf


def uniform(m: int) -> Pmf:
    """Uniform distribution on an alphabet of m symbols."""
    if m < 2:
        raise AlphabetSizeError(f"alphabet size must be >= 2, got {m}")
    return _census([1.0 / m], [m])


def _floor_stable(x: float) -> int:
    # floor with a guard against 0.999...96-style float dust; m*(1-eps)
    # is meant to be evaluated in exact arithmetic.
    return int(math.floor(x + 1e-9))


def biuniform_worst_case(m: int, eps: float) -> Pmf:
    """Bi-uniform alternative minimizing the chi-square functional at TV radius eps.

    For eps < 0.5 the first floor(m/2) symbols get 1/m + eps/floor(m/2)
    and the rest 1/m - eps/ceil(m/2).  For eps >= 0.5 the mass is spread
    uniformly over the first floor(m*(1-eps)) symbols.
    """
    if m < 2:
        raise AlphabetSizeError(f"alphabet size must be >= 2, got {m}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps < 0.5:
        lo_count = m // 2
        hi = 1.0 / m + eps / lo_count
        lo = 1.0 / m - eps / ((m + 1) // 2)
        return _census([hi, lo], [lo_count, m - lo_count]) if hi != lo else _census([hi], [m])
    k = _floor_stable(m * (1.0 - eps))
    if k == 0:
        raise DegenerateAlternativeError(
            f"floor(m*(1-eps)) = 0 for m={m}, eps={eps}"
        )
    return _census([1.0 / k, 0.0], [k, m - k])


def permuted_worst_case(m: int, eps: float, subset: Iterable[int]) -> Pmf:
    """Coordinate permutation of the bi-uniform worst case (eps < 0.5 branch).

    `subset` lists the 1-based symbols receiving the heavy value; it must
    have exactly floor(m/2) elements.
    """
    if m < 2:
        raise AlphabetSizeError(f"alphabet size must be >= 2, got {m}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    idx = sorted(set(int(j) for j in subset))
    if len(idx) != m // 2:
        raise ValueError(f"subset must have exactly {m // 2} symbols, got {len(idx)}")
    if idx and (idx[0] < 1 or idx[-1] > m):
        raise ValueError(f"subset symbols must lie in 1..{m}")
    probs = np.full(m, 1.0 / m - eps / ((m + 1) // 2))
    probs[np.asarray(idx) - 1] = 1.0 / m + eps / (m // 2)
    return Pmf(probs)


def _check_same_alphabet(q: Pmf, p: Pmf) -> None:
    if q.m != p.m:
        raise ValueError(f"alphabet sizes differ: {q.m} vs {p.m}")


def _supp_mask(q: Pmf, p: Pmf) -> np.ndarray:
    """Mask of supp(p), after checking supp(q) is contained in it."""
    _check_same_alphabet(q, p)
    mask = p.probs > 0.0
    if np.any(q.probs[~mask] > 0.0):
        raise SupportError("q puts mass outside the support of p")
    return mask


def tv_distance(q: Pmf, p: Pmf) -> float:
    """Total variation distance, computed as half the L1 distance.

    Identical to the supremum over subsets of |q(B) - p(B)|.
    """
    _check_same_alphabet(q, p)
    return 0.5 * float(np.abs(q.probs - p.probs).sum())


def chi_square_functional(q: Pmf, p: Pmf) -> float:
    """sum_j q_j^2 / p_j over the support of p.

    By Cauchy-Schwarz the value is >= 1, with equality iff q = p on
    supp(p).  This is the quantity whose worst-case value over the
    TV-eps shell controls the missed-detection exponent.
    """
    mask = _supp_mask(q, p)
    return float(np.sum(q.probs[mask] ** 2 / p.probs[mask]))


def likelihood_ratio_bound(q: Pmf, p: Pmf) -> float:
    """max_j q_j / p_j over supp(p); compare against gamma for membership checks."""
    mask = _supp_mask(q, p)
    return float(np.max(q.probs[mask] / p.probs[mask]))


def _eval_f(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(x), dtype=np.float64)
        if vals.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(v)) for v in x])
    return vals


def f_divergence(q: Pmf, p: Pmf, f: Callable) -> float:
    """sum_j p_j f(q_j / p_j) over supp(p), for convex f with f(1) = 0.

    `f` must accept the ratio 0 (give it the limiting value, e.g.
    0*log(0) = 0); a NaN or infinity anywhere is reported as an error
    rather than silently propagated.
    """
    mask = _supp_mask(q, p)
    f1 = float(_eval_f(f, np.array([1.0]))[0])
    if not abs(f1) <= 1e-12:
        raise ValueError(f"f(1) must be 0 for an f-divergence, got {f1}")
    vals = _eval_f(f, q.probs[mask] / p.probs[mask])
    if not np.all(np.isfinite(vals)):
        raise ValueError("f evaluated to a non-finite value on the ratio grid")
    return float(np.sum(p.probs[mask] * vals))


def f_kl(x):
    """f inducing KL divergence: x log x - (x - 1), with 0 log 0 = 0."""
    x = np.asarray(x, dtype=np.float64)
    xlogx = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
    return xlogx - (x - 1.0)


def f_chi2(x):
    """f inducing the (Neyman-normalized) chi-square divergence: (x - 1)^2."""
    x = np.asarray(x, dtype=np.float64)
    return (x - 1.0) ** 2


def f_tv(x):
    """f inducing total variation: |x - 1| / 2."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * np.abs(x - 1.0)


@dataclass(frozen=True)
class FDivConditionReport:
    """Grid certificates for the two conditions an f must satisfy for the
    n^2/m normalization to apply to its divergence ball.

    gap_holds:   some x in (0, 1) has (f(1-x) + f(1+x))/2 > f(1)
    gap_witness: the first such grid point (None when gap_holds is False)
    quad_holds:  f(x) <= quad_alpha * (x - 1)^2 held at every grid point
    quad_alpha:  sup over the grid of f(x)/(x-1)^2, excluding x = 1

    Both are certificates on the supplied grids, not proofs: an alpha
    that keeps growing as the grid is refined near x = 1 (as happens for
    the total-variation f) signals that the true condition fails.
    """

    gap_holds: bool
    gap_witness: float | None
    quad_holds: bool
    quad_alpha: float


def check_fdiv_conditions(
    f: Callable,
    gap_grid: np.ndarray | None = None,
    quad_grid: np.ndarray | None = None,
) -> FDivConditionReport:
    """Check the two f-divergence conditions on sampling grids.

    `gap_grid` must cover (0, 1); `quad_grid` covers the x-range over
    which the quadratic domination is certified (default [0, 100]).
    """
    if gap_grid is None:
        gap_grid = np.linspace(1.0 / 512, 1.0 - 1.0 / 512, 511)
    if quad_grid is None:
        quad_grid = np.linspace(0.0, 100.0, 4001)
    gap_grid = np.asarray(gap_grid, dtype=np.float64)
    quad_grid = np.asarray(quad_grid, dtype=np.float64)
    if np.any(gap_grid <= 0.0) or np.any(gap_grid >= 1.0):
        raise ValueError("gap_grid must lie strictly inside (0, 1)")
    if np.any(quad_grid < 0.0):
        raise ValueError("quad_grid must be non-negative")

    f1 = float(_eval_f(f, np.array([1.0]))[0])
    gaps = 0.5 * (_eval_f(f, 1.0 - gap_grid) + _eval_f(f, 1.0 + gap_grid)) - f1
    if np.any(np.isnan(gaps)):
        raise ValueError("f evaluated to NaN on the gap grid")
    hits = np.flatnonzero(gaps > 0.0)
    gap_holds = hits.size > 0
    witness = float(gap_grid[hits[0]]) if gap_holds else None

    xs = quad_grid[np.abs(quad_grid - 1.0) > 1e-9]
    ratios = _eval_f(f, xs) / (xs - 1.0) ** 2
    if np.any(np.isnan(ratios)):
        raise ValueError("f evaluated to NaN on the quadratic grid")
    alpha = float(np.max(ratios))
    quad_holds = bool(np.isfinite(alpha))
    return FDivConditionReport(gap_holds, witness, quad_holds, alpha)
