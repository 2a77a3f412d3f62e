"""High-throughput Monte Carlo estimation of the error probabilities.

Reproducibility contract: trials are processed in fixed blocks of
BLOCK_TRIALS, and block b of an estimation context draws from a Philox
generator keyed by (seed, context, b).  Estimates are integer counts
summed over blocks, so results are bit-identical for any stream count
and any worker count; `streams` only chooses how blocks are distributed
across threads, and fingerprint-path blocks all run on the calling thread.

The sampling path is a fixed function of (source, n, m, tables), pinned
in `_sampler_path`, and every path samples the exact multinomial law.
The Poissonized paths take sources of at most two levels (`Pmf.groups`) in
any symbol order; count rows come out in the source's own symbol order.
The fingerprint path reads only each level's probability and number of
symbols, so a source built from its level census (`uniform`,
`biuniform_worst_case`) is sampled with no array of m entries.  The other
paths read per-symbol arrays (`Pmf.probs`, `Pmf.index`, `Pmf.inverse_cdf`),
which `_make_sampler` builds before any stream draws.

- "tally" (at most two levels, 2m <= n): a (b, m) count matrix,
  Poissonized.  With lam = max(n - 1.25 sqrt(n), 0), each cell draws
  Y_j ~ Poisson(lam p_j) by inverting its level's CDF bits first (see
  `_GuidedCdf.draw`); rows whose total N exceeds n are redrawn whole, and
  the other n - N draws of a row are drawn directly through `Pmf.inverse_cdf`
  and counted by `bincount`.  Given N = k, Y is
  Multinomial(k, p), so adding Multinomial(n - k, p) gives the exact
  law at ~m + 1.25 sqrt(n) per row instead of n; ~10% of rows redraw.
- "counts" (other sources, 16m <= n): the same count matrix from the
  conditional-binomial chain.  This is the reference the tests hold the
  tally path to.
  Both count paths draw ~2^17 cells at a time into one reused buffer, and
  each chunk is evaluated before the next one is drawn.
- "sorted" (the rest): all n symbols drawn, each by inverting the CDF
  table the `Pmf` caches (`Pmf.inverse_cdf`), bits first as on the tally
  path, into int32 rows, and sorted per row.  This is the general path
  and the reference the tests hold the fingerprint path to.
- "fingerprint" (at most two levels, 2m > n, n >= 100, m >= 768, every table
  shared by all symbols): the fingerprints Phi, Poissonized as on the
  tally path.  The Poisson(lam p) counts of a level's s symbols have
  the fingerprint Multinomial(s, Poisson(lam p) pmf); rows with
  N = sum_c c Phi_c > n are redrawn.  The other n - N draws are split
  between two levels by a binomial of the first level's mass s p.  Of a
  level's share, with D of its symbols seen, a run of g fresh ones
  (survival function prod_{i<g} (1 - (D+i)/s)) moves g symbols from
  class 0 to class 1, and the repeat after it lands on a uniform one of
  the D, which moves up one class.  The repeats' targets are drawn after
  the runs (see `_RepeatChain.top_up`).

On every path a statistic whose table all symbols share is evaluated as
sum_c Phi_c f(c) over the occupancy fingerprints Phi of the block's rows.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .pmf import _GUIDE_BITS, Pmf, _GuidedCdf, _walk_up, biuniform_worst_case, uniform
from .statistics import (
    FTable,
    OccupancyFingerprint,
    SeparableStatistic,
    ThresholdRule,
    make_threshold,
)

__all__ = [
    "RNG_ALGORITHM",
    "BLOCK_TRIALS",
    "SimPlan",
    "ErrorEstimate",
    "SweepRow",
    "sample_occupancy",
    "estimate_pf",
    "estimate_pm",
    "simulate_statistics",
    "sweep",
    "PartitionMap",
]

BLOCK_TRIALS = 2048
RNG_ALGORITHM = f"philox4x64-block{BLOCK_TRIALS}-v12"

_MASK64 = (1 << 64) - 1


def _block_rng(seed: int, ctx: int, block: int) -> Generator:
    key = np.array([seed & _MASK64, ((ctx & 0xFFFFFFFF) << 32) | block], dtype=np.uint64)
    return Generator(Philox(key=key))


# ---------------------------------------------------------------------------
# samplers: each yields the pieces of a block, read in turn: chunks of a
# (b, m) count matrix ("tally", "counts"), or one row-sorted (b, n) symbol
# matrix ("sorted") or (b, classes) occupancy fingerprints ("fingerprint");
# all are exact multinomial.

_COUNT_PATHS = ("tally", "counts")
# the Poisson mean is n - 1.25 sqrt(n): ~10% of rows redraw, and ~1.25 sqrt(n)
# draws per row are topped up; of 1, 1.25 and 1.5, 1.25 timed at or near the
# fastest on both the sweep and the tally path's dense point
_TALLY_SLACK = 1.25
_TALLY_CELLS = 1 << 17  # count cells drawn at once: a count block holds ~1 MB of counts
# path cuts fitted to one-block timings (the cost table in CHANGES.md): tally
# from n = 2m, counts from n = 16m, fingerprint from m = 768 at n >= 100
_TALLY_RATIO = 2
_COUNTS_RATIO = 16
_FINGERPRINT_N = 100
_FINGERPRINT_M = 768
_Sampler = Callable[[Generator, int], Iterator[np.ndarray]]


def _sampler_path(source: Pmf, n: int, tables: Sequence[FTable]) -> str:
    """The block sampler's path, pinned per release.

    Per-trial cost is ~m + 1.25 sqrt(n) for the Poissonized tally, ~4m for
    the conditional-binomial chain, ~n log n to draw and sort, and ~1.25 n^1.5/m
    repeats for the fingerprint chain, which needs every table shared.  On
    two-level sources the cuts keep within 2x of the fastest path wherever
    n >= 100 or m <= 16000; at n < 100, m >= 65536 (r < 0.15) within 2.9x.
    """
    m = source.m
    if source.groups[0].size > 2:
        return "counts" if _COUNTS_RATIO * m <= n else "sorted"
    if _TALLY_RATIO * m <= n:
        return "tally"
    shared = all(t.group is None for t in tables)
    return "fingerprint" if shared and n >= _FINGERPRINT_N and m >= _FINGERPRINT_M else "sorted"


class _RepeatChain:
    """Repeat times of samples from `size` equiprobable symbols, for up to
    n draws.

    With A[k] = -sum_{i<k} log1p(-i/size) (inf past size), the next g
    draws after D distinct symbols are all fresh with probability
    exp(A[D] - A[D+g]), so an Exp(1) variate e gives the run
    g = max{g : A[D+g] <= A[D] + e}.  sqrt(A) grows about linearly, so a
    guide table over it starts each search at most a few entries below
    its end: ~5x faster than `searchsorted` on unsorted keys.
    """

    def __init__(self, size: int, n: int) -> None:
        self.size = size
        i = np.minimum(np.arange(n + 1), size)
        with np.errstate(divide="ignore"):
            self.a = np.concatenate([[0.0], np.cumsum(-np.log1p(-i / size)), [np.inf]])
        self.buckets = 4 * (n + 1)  # ~4 buckets per entry keep each walk to a step or two
        self.inv_step = 1.0 / (math.sqrt(self.a[np.isfinite(self.a)][-1]) / self.buckets or 1.0)
        # guide[j] = #{k : bucket(A[k]) < j}; bucket is monotone, so each of
        # those A[k] lies below every x of bucket j: a search starts at or below its end
        per_bucket = np.bincount(self._bucket(self.a), minlength=self.buckets + 1)
        self.guide = np.cumsum(per_bucket) - per_bucket

    def _bucket(self, x: np.ndarray) -> np.ndarray:  # min(floor(sqrt(x) / step), buckets)
        return np.minimum(np.sqrt(x) * self.inv_step, self.buckets).astype(np.int64)

    def count_le(self, x: np.ndarray) -> np.ndarray:
        """#{k : A[k] <= x} for each x >= 0."""
        return _walk_up(self.a, self.guide[self._bucket(x)], x)  # the closing inf stops every walk

    def top_up(self, rng: Generator, phi: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Fingerprints phi (b, classes >= 2) of `size` symbols after draws[i]
        more draws in row i, widened when a count outgrows them.

        A round draws each row's run of fresh symbols from one Exp(1) variate
        and records the seen count D of the repeat that ends it.  D moves
        only on a fresh draw, and given D a repeat lands on a uniform one of
        the D seen symbols whatever the fresh/repeat pattern was, so the
        repeats' targets are drawn after the last round, with the same law:
        a uniform label below D each.  Labels below the row's D0 before the
        top-up are its seen symbols in class order, and the others its fresh
        symbols in the order they were made, each of class 1.  A symbol hit
        h times moves from its class c to c + h.
        """
        rows = np.flatnonzero(draws > 0)
        if not rows.size:
            return phi
        seen0 = self.size - phi[rows, 0]
        # cap: D once every draw left is fresh; a repeat lowers it by one
        at, seen, cap = np.arange(rows.size), seen0, seen0 + draws[rows]
        repeats, d = [], []  # each round's repeats: index into rows, and D (never updated in place)
        while at.size:
            x = self.a[seen] + rng.standard_exponential(at.size)
            end = np.minimum(self.count_le(x) - 1, cap)  # D after the fresh run
            more = end < cap
            at, seen, cap = at[more], end[more], cap[more] - 1
            repeats.append(at)
            d.append(seen)
        repeats = np.concatenate(repeats)
        fresh = draws[rows] - np.bincount(repeats, minlength=rows.size)
        key, hits = np.unique(repeats * self.size + rng.integers(0, np.concatenate(d)), return_counts=True)
        at, label = np.divmod(key, self.size)
        row = rows[at]
        c = np.ones(key.size, dtype=np.int64)
        # most labels are class 1: only those past phi_1 and below D0 read the cumulative phi
        deep = np.flatnonzero((label >= phi[row, 1]) & (label < seen0[at]))
        c[deep] += np.count_nonzero(np.cumsum(phi[row[deep], 1:], axis=1) <= label[deep, None], axis=1)
        phi[rows, 0] -= fresh  # after the class lookup, which reads the Poisson part's phi
        phi[rows, 1] += fresh
        if (width := int((c + hits).max(initial=0)) + 1) > phi.shape[1]:
            phi = np.pad(phi, ((0, 0), (0, width - phi.shape[1])))
        np.subtract.at(phi, (row, c), 1)
        np.add.at(phi, (row, c + hits), 1)
        return phi


def _poisson_cdf(mu: float) -> tuple[int, np.ndarray]:
    """(lo, cdf) with cdf[i] = P(Poisson(mu) <= lo + i) over the window where
    it moves in double precision: from 12 sd below the mean to the first
    entry that rounds to 1, with k! from a cumsum of log k.  The +-12 sd
    tails are below 1e-31; the extra 60 above covers small means."""
    if mu <= 0.0:
        return 0, np.ones(1)
    sd = math.sqrt(mu)
    lo = max(0, math.floor(mu - 12 * sd - 12))
    k = np.arange(lo, math.ceil(mu + 12 * sd + 60) + 1)
    logw = (k - lo) * math.log(mu) - np.concatenate([[0.0], np.cumsum(np.log(k[1:]))])
    cdf = np.cumsum(np.exp(logw - logw.max()))
    cdf = cdf[: np.count_nonzero(cdf < cdf[-1]) + 1] / cdf[-1]
    cdf[-1] = 1.0
    return lo, cdf


def _count_blocks(fill: Callable[[Generator, np.ndarray], None], m: int) -> _Sampler:
    """Blocks of count rows that `fill` draws ~2^17 cells at a time into one
    reused buffer: each chunk yielded is overwritten by the next, so the
    caller reads it first."""
    rows = max(1, _TALLY_CELLS // m)

    def draw_block(rng: Generator, b: int) -> Iterator[np.ndarray]:
        counts = np.empty((min(b, rows), m), dtype=np.int64)
        for lo in range(0, b, rows):
            fill(rng, chunk := counts[:b - lo])
            yield chunk

    return draw_block


def _tally_sampler(source: Pmf, n: int) -> _Sampler:
    """Count blocks (see `_count_blocks`) of n draws per row from a source
    of at most two levels, Poissonized (see the module docstring).

    A chunk inverts one uniform per cell through its symbol's level's
    Poisson CDF, redraws its rows of total over n until none is left, then
    draws the remaining symbols of each row through the source's own
    inverse-CDF table and counts them by one `bincount` of symbols offset
    by row * m.
    """
    m = source.m
    levels, _ = source.groups
    lam = max(n - _TALLY_SLACK * math.sqrt(n), 0.0)
    poisson = _GuidedCdf([_poisson_cdf(lam * p) for p in levels], source.index if levels.size > 1 else None, _GUIDE_BITS)
    symbols = source.inverse_cdf  # built before any stream draws

    def fill(rng: Generator, chunk: np.ndarray) -> None:
        c = chunk.shape[0]
        total = poisson.draw(rng, chunk).sum(axis=1)
        while (over := np.flatnonzero(total > n)).size:
            redo = poisson.draw(rng, np.empty((over.size, m), np.int64))
            chunk[over] = redo
            total[over] = redo.sum(axis=1)
        rest = n - total
        at = symbols.draw(rng, np.empty(rest.sum(), np.int32))
        at += np.repeat(np.arange(0, c * m, m, dtype=np.int32), rest)
        chunk += np.bincount(at, minlength=c * m).reshape(c, m)

    return _count_blocks(fill, m)


def _fingerprint_sampler(source: Pmf, n: int) -> _Sampler:
    """Blocks of (b, classes) occupancy fingerprints, up to the block's largest
    count, of n draws per row from a source of at most two levels (see the
    module docstring), each in one piece."""
    lam = max(n - _TALLY_SLACK * math.sqrt(n), 0.0)
    levels, sizes = source.groups
    windows = [_poisson_cdf(lam * p) for p in levels]
    chains = [_RepeatChain(size, n) for size in sizes.tolist()]
    w = min(float(sizes[0] * levels[0]), 1.0)  # the first level's mass s p: within the sum tolerance, it can pass 1
    weight = np.arange(1 + max(lo + cdf.size for lo, cdf in windows))  # a spare class

    def poisson_part(rng: Generator, b: int) -> tuple[np.ndarray, np.ndarray]:
        phi = np.zeros((len(chains), b, weight.size), dtype=np.int64)
        for level, chain, (lo, cdf) in zip(phi, chains, windows):
            level[:, lo:lo + cdf.size] = rng.multinomial(chain.size, np.diff(cdf, prepend=0.0), size=b)
        return phi, (phi @ weight).sum(axis=0)

    def draw_fingerprint(rng: Generator, b: int) -> Iterator[np.ndarray]:
        phi, total = poisson_part(rng, b)  # (levels, b, classes), and each row's N
        while (over := np.flatnonzero(total > n)).size:
            phi[:, over], total[over] = poisson_part(rng, over.size)
        rest = n - total
        k = rng.binomial(rest, w) if len(chains) == 2 else rest
        parts = [chain.top_up(rng, level, d) for chain, level, d in zip(chains, phi, (k, rest - k))]
        width = max(part.shape[1] for part in parts)
        out = sum(np.pad(part, ((0, 0), (0, width - part.shape[1]))) for part in parts)
        yield out[:, :np.flatnonzero(out.any(axis=0))[-1] + 1]

    return draw_fingerprint


def _make_sampler(source: Pmf, n: int, tables: Sequence[FTable]) -> tuple[str, _Sampler]:
    """(path, draw): the path of `_sampler_path` and its block sampler."""
    m = source.m
    path = _sampler_path(source, n, tables)
    if path == "tally":
        return path, _tally_sampler(source, n)
    if path == "counts":
        probs = source.probs  # built before any stream draws
        return path, _count_blocks(
            lambda rng, chunk: np.copyto(chunk, rng.multinomial(n, probs, size=len(chunk))), m)
    if path == "fingerprint":
        return path, _fingerprint_sampler(source, n)

    table = source.inverse_cdf  # built before any stream draws

    def draw_sorted(rng: Generator, b: int) -> Iterator[np.ndarray]:
        x = table.draw(rng, np.empty((b, n), dtype=np.int32))
        x.sort(axis=1)
        yield x

    return path, draw_sorted


# ---------------------------------------------------------------------------
# statistic kernels


def _fingerprints(path: str, data: np.ndarray, m: int, top: int, largest: int | None = None) -> np.ndarray:
    """(b, top' + 1) fingerprints of a block: column c counts each row's
    symbols seen c times, and the last one those seen top' or more times,
    with top' = min(top, the block's largest count), which a count block
    reads itself unless the caller passes it as `largest`.

    A fingerprint block is cut at top'.  Count rows take one `bincount` of
    min(c, top') + row (top' + 1).  On sorted symbols E_l counts a row's
    windows of l equal draws: a symbol seen c times owns max(c - l + 1, 0)
    of them, so E_1 = n and G_c = E_c - E_{c+1} symbols are seen c or more
    times.  W_l[:, i] marks x_i == x_{i+l-1}; each W_{l+1} is W_l AND the
    adjacent-equal mask, shifted to the window's end, and the levels stop
    at the first empty one.
    """
    if path == "fingerprint":
        top = min(top, data.shape[1] - 1)
        return np.concatenate([data[:, :top], data[:, top:].sum(axis=1, keepdims=True)], axis=1)
    if path in _COUNT_PATHS:
        b = data.shape[0]
        largest = int(data.max(initial=0)) if largest is None else largest
        top = min(top, largest)
        offsets = np.arange(0, b * (top + 1), top + 1)[:, None]
        if top < largest:
            keys = np.minimum(data, top)  # the one (b, m) temporary
            keys += offsets
        else:  # no count to cut (Pearson's K is n)
            keys = data + offsets
        return np.bincount(keys.reshape(-1), minlength=b * (top + 1)).reshape(b, top + 1)
    b, n = data.shape
    w = eq = data[:, 1:] == data[:, :-1]
    e = [np.full(b, n)] if n else []
    for l in range(2, top + 2):
        if l > 2:
            w = w[:, :-1] & eq[:, l - 2:]
        # summing the mask's bytes is ~2.5x faster than count_nonzero(axis=1)
        el = w.view(np.uint8).sum(axis=1, dtype=np.int32)
        if not el.any():
            break
        e.append(el)
    top = min(top, len(e))
    e = np.stack(e + [np.zeros(b, np.int64)], axis=1)
    return -np.diff(e[:, :top] - e[:, 1:top + 1], axis=1, prepend=m, append=0)


def _run_sums(t: FTable, x: np.ndarray) -> np.ndarray:
    """sum_j f_j(c_j) of a reference-dependent table per row of sorted
    symbols, telescoped: copy k of a run adds f(min(k, K)) - f(min(k - 1, K))
    of its symbol's group, read at its rank k - 1 within the run."""
    at = np.arange(x.shape[1], dtype=np.int32)
    start = np.ones(x.shape, dtype=bool)
    np.not_equal(x[:, 1:], x[:, :-1], out=start[:, 1:])
    rank = at - np.maximum.accumulate(np.where(start, at, 0), axis=1)
    step = np.diff(t.f, axis=1, append=t.f[:, -1:])  # f(r + 1) - f(r), 0 at r = K
    idx = (t.group * (t.K + 1)).astype(np.int32 if step.size < 2**31 else np.int64)[x]
    idx += np.minimum(rank, t.K, out=rank)
    core = step.reshape(-1).take(idx).sum(axis=1)
    return core + np.einsum("i,i", np.bincount(t.group), t.f[:, 0])


def _block_values(tables: Sequence[FTable], path: str, data: np.ndarray, m: int) -> list[np.ndarray]:
    """Statistic values on a piece of a block drawn on `path`: count rows
    ("tally", "counts"), fingerprints ("fingerprint") or row-sorted
    symbols ("sorted").  A shared table's value is sum_c Phi_c f(c) over
    the piece's fingerprints, cut at the shared tables' largest K, unless
    that is wider than its count rows (at n >> m^2, or a heavy symbol);
    there, and for a reference-dependent table, each value reads
    f[group, min(c, K)] of the counts, or `_run_sums` of sorted symbols.
    Both sums agree exactly for an integer core, else to rounding.
    """
    top = max((t.K for t in tables if t.group is None), default=None)
    largest = int(data.max(initial=0)) if top is not None and path in _COUNT_PATHS else None
    if largest is not None and min(top, largest) >= m:
        top = None
    phi = None if top is None else _fingerprints(path, data, m, top, largest)
    return [
        t.fingerprint_values(phi) if phi is not None and t.group is None
        else t.values(data) if path in _COUNT_PATHS
        else _run_sums(t, data) / t.scale + t.shift
        for t in tables
    ]


# ---------------------------------------------------------------------------
# plans and estimates


@dataclass(frozen=True)
class SimPlan:
    """One Monte Carlo estimation task.

    The alternative defaults to the worst-case bi-uniform distribution
    at TV radius eps.  r = n^2/m is the decay normalization the sweep
    reports alongside each row.
    """

    n: int
    m: int
    eps: float
    statistic: SeparableStatistic
    rule: ThresholdRule
    trials: int
    seed: int
    streams: int = 1
    alternative: Pmf | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 2 or self.trials < 1 or self.streams < 1:
            raise ValueError("need n >= 1, m >= 2, trials >= 1, streams >= 1")
        rule = self.rule
        if (rule.n, rule.m, rule.statistic) != (self.n, self.m, self.statistic):
            raise ValueError(
                f"rule was built for {rule.statistic.name} at n={rule.n}, m={rule.m}; "
                f"plan has {self.statistic.name} at n={self.n}, m={self.m}"
            )
        if self.alternative is None:
            object.__setattr__(
                self, "alternative", biuniform_worst_case(self.m, self.eps)
            )
        elif self.alternative.m != self.m:
            raise ValueError(
                f"alternative has {self.alternative.m} symbols, plan has {self.m}"
            )

    @property
    def r(self) -> float:
        return self.n * self.n / self.m

    @cached_property
    def null(self) -> Pmf:
        """The uniform null, one instance per plan."""
        return uniform(self.m)

    @property
    def sampler(self) -> dict[str, str]:
        """The sampler path of each estimate: "tally", "counts", "sorted"
        or "fingerprint", a fixed function of the source, n, m and statistic."""
        tables = [self.rule.statistic.table(self.n, self.m)]
        return {
            "pf": _sampler_path(self.null, self.n, tables),
            "pm": _sampler_path(self.alternative, self.n, tables),
        }


@dataclass(frozen=True)
class ErrorEstimate:
    """Frequency estimate with a normal-approximation confidence interval.

    p_hat is exactly exceed_count/trials; the half-width is zero when
    the count is degenerate (0 or trials).
    """

    p_hat: float
    exceed_count: int
    trials: int
    ci95_halfwidth: float

    @classmethod
    def from_count(cls, count: int, trials: int) -> "ErrorEstimate":
        p = count / trials
        ci = 1.96 * math.sqrt(p * (1.0 - p) / trials)
        return cls(p_hat=p, exceed_count=count, trials=trials, ci95_halfwidth=ci)


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    r: float
    pf: ErrorEstimate
    pm: ErrorEstimate
    flags: tuple[str, ...]
    sampler: dict[str, str]


def _run_blocks(
    source: Pmf, tables: Sequence[FTable], n: int, trials: int, seed: int, ctx: int,
    streams: int, reduce: Callable[[list[np.ndarray]], object],
) -> list:
    """reduce(statistic values) of each block of `trials` rows of n draws
    from source, in block order.  Block b draws from the Philox generator
    keyed by (seed, ctx, b), whichever of the `streams` threads runs it.
    """
    path, draw = _make_sampler(source, n, tables)
    sizes = [min(BLOCK_TRIALS, trials - lo) for lo in range(0, trials, BLOCK_TRIALS)]

    def values(b: int) -> list[np.ndarray]:
        # each piece is evaluated before the next one is drawn into its buffer
        pieces = [_block_values(tables, path, data, source.m) for data in draw(_block_rng(seed, ctx, b), sizes[b])]
        return [np.concatenate(v) for v in zip(*pieces)]

    def run(block_ids: Iterable[int]) -> list:
        return [reduce(values(b)) for b in block_ids]

    # fingerprint blocks hold the GIL: in 8 alternating sweep passes a side, 2 streams
    # took a median 0.099 s (0.090-0.109), 1 stream 0.093 s (0.082-0.122)
    if streams == 1 or len(sizes) <= 1 or path == "fingerprint":
        return run(range(len(sizes)))
    first, *rest = np.array_split(np.arange(len(sizes)), min(streams, len(sizes)))
    # the calling thread runs one chunk itself: starting a worker while
    # another holds the GIL costs up to a switch interval (5 ms)
    with ThreadPoolExecutor(max_workers=len(rest)) as pool:
        futures = [pool.submit(run, chunk) for chunk in rest]
        return run(first) + [x for f in futures for x in f.result()]


def _estimate(plan: SimPlan, source: Pmf, ctx: int, rejects: bool) -> ErrorEstimate:
    """Frequency of rejections (or acceptances) of plan.rule under source."""
    rule = plan.rule
    count = sum(_run_blocks(
        source, [rule.statistic.table(plan.n, plan.m)], plan.n, plan.trials,
        plan.seed, ctx, plan.streams, lambda values: int(rule.rejects(values[0]).sum()),
    ))
    return ErrorEstimate.from_count(count if rejects else plan.trials - count, plan.trials)


def estimate_pf(plan: SimPlan, ctx: int = 0) -> ErrorEstimate:
    """Monte Carlo false-alarm probability: reject frequency under the uniform null."""
    return _estimate(plan, plan.null, ctx, rejects=True)


def estimate_pm(plan: SimPlan, ctx: int = 1) -> ErrorEstimate:
    """Monte Carlo missed-detection probability: accept frequency under the
    plan's alternative (worst-case bi-uniform unless overridden)."""
    return _estimate(plan, plan.alternative, ctx, rejects=False)


def simulate_statistics(
    source: Pmf,
    statistics: Sequence[SeparableStatistic],
    n: int,
    trials: int,
    seed: int,
    ctx: int = 0,
) -> list[np.ndarray]:
    """Evaluate several statistics on the same sampled trials.

    Returns one value array of length `trials` per statistic; pairing
    across statistics (and across thresholds) is exact because all are
    computed from identical samples.
    """
    if n < 0 or trials < 1:
        raise ValueError(f"need n >= 0 and trials >= 1, got n={n}, trials={trials}")
    tables = [stat.table(n, source.m) for stat in statistics]
    blocks = _run_blocks(source, tables, n, trials, seed, ctx, 1, lambda values: values)
    return [np.concatenate(chunks) for chunks in zip(*blocks)]


def sample_occupancy(p: Pmf, n: int, rng: Generator) -> OccupancyFingerprint:
    """Occupancy fingerprint of n i.i.d. draws from p: one row of the
    Monte Carlo block sampler (same path, exact law), drawn from a Philox
    generator keyed by rng, as the samplers read 64 bits per raw word."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    path, draw = _make_sampler(p, n, ())
    row, = draw(Generator(Philox(key=rng.integers(1 << 64, size=2, dtype=np.uint64))), 1)
    return OccupancyFingerprint(n=n, m=p.m, phi=_fingerprints(path, row, p.m, n)[0])


def sweep(
    eps: float,
    statistic: SeparableStatistic,
    tau: float | None,
    n_list: Iterable[int],
    m_rule: Callable[[int], int],
    trials: int,
    seed: int,
    streams: int = 1,
) -> list[SweepRow]:
    """Estimate (P_F, P_M) along a growth schedule of (n, m) pairs.

    Rows are ordered by n; each row gets its own RNG context so the
    whole sweep is reproducible from the single seed.  Zero-count
    estimates are flagged rather than dropped, and counts below 20 are
    flagged as statistically thin.
    """
    rows: list[SweepRow] = []
    for i, n in enumerate(sorted(int(x) for x in n_list)):
        m = int(m_rule(n))
        rule = make_threshold(statistic, n, m, tau=tau, eps=eps)
        plan = SimPlan(
            n=n, m=m, eps=eps, statistic=statistic, rule=rule,
            trials=trials, seed=seed, streams=streams,
        )
        pf = estimate_pf(plan, ctx=2 + 2 * i)
        pm = estimate_pm(plan, ctx=3 + 2 * i)
        flags: list[str] = []
        for name, est in (("pf", pf), ("pm", pm)):
            if est.exceed_count == 0:
                flags.append(f"{name}_zero")
            elif est.exceed_count < 20:
                flags.append(f"{name}_low")
        if flags:
            warnings.warn(
                f"sweep row n={n}, m={m}: thin counts ({', '.join(flags)}); "
                "consider more trials",
                stacklevel=2,
            )
        rows.append(SweepRow(
            n=n, m=m, r=n * n / m, pf=pf, pm=pm, flags=tuple(flags), sampler=plan.sampler,
        ))
    return rows


class PartitionMap:
    """Equal-probability partition of a continuous observation space.

    Built from the quantile function (inverse CDF) of the null law P:
    cell j is [quantile((j-1)/m), quantile(j/m)), so under the null the
    induced symbol is uniform on 1..m.  The top edge is closed so the
    maximum observation stays in cell m.
    """

    def __init__(self, quantile: Callable[[float], float], m: int) -> None:
        if m < 2:
            raise ValueError(f"need at least 2 cells, got {m}")
        edges = np.array([quantile(j / m) for j in range(m + 1)], dtype=np.float64)
        if np.isnan(edges).any():
            raise ValueError("quantile function returned NaN")
        if np.any(np.diff(edges) < 0.0):
            raise ValueError("quantile function must be non-decreasing")
        self.m = m
        self.edges = edges

    def __call__(self, y):
        arr = np.asarray(y, dtype=np.float64)
        if not np.all((arr >= self.edges[0]) & (arr <= self.edges[-1])):  # NaN fails too
            raise ValueError(
                f"observation outside [{self.edges[0]}, {self.edges[-1]}]"
            )
        symbols = np.searchsorted(self.edges[1:-1], arr, side="right") + 1
        return int(symbols) if np.isscalar(y) else symbols
