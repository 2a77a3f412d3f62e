"""High-throughput Monte Carlo estimation of the error probabilities.

Reproducibility contract: trials are processed in fixed blocks of
BLOCK_TRIALS, and block b of an estimation context draws from a Philox
generator keyed by (seed, context, b).  Estimates are integer counts
summed over blocks, so results are bit-identical for any stream count
and any worker count; `streams` only chooses how blocks are distributed
across threads.

The sampling path is a fixed function of (source, n, m, tables), pinned
in `_sampler_path`, and every path samples the exact multinomial law:

- "tally" (uniform or two-band source, 4m <= n): all n symbols drawn
  directly and counted per row, by a `bincount` of row-offset symbols
  per chunk of rows, into a (b, m) count matrix.  A two-band source
  splits k ~ Binomial(n, w1) first.
- "counts" (other sources, 4m <= n): the same count matrix from the
  conditional-binomial chain.  This is the reference the tests hold the
  tally path to.
- "sorted" / "alias": all n symbols drawn (directly for uniform and
  two-band sources, through an alias table otherwise) and sorted per
  row.  This is the general path and the reference the tests hold the
  event path to.
- "event" (uniform or two-band source, n >= 256, m >= 16n, every table
  shared by all symbols): only the repeat structure is drawn.  With D
  distinct symbols seen, the run of fresh draws before the next repeat
  has survival function prod_{i<g} (1 - (D+i)/m), so the repeat times
  depend on the draw count and the number of repeats alone; given them,
  a repeat taken with D symbols seen hits a symbol that is uniform among
  those D, labelled by order of first appearance.  A symbol seen c times
  leaves c - 1 labels, so the sorted label rows hold ~n^2/2m entries and
  feed the same window kernel as sorted symbols.  A two-band source
  splits k ~ Binomial(n, w1) and runs one such chain per band.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .pmf import Pmf, biuniform_worst_case, uniform
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
RNG_ALGORITHM = f"philox4x64-block{BLOCK_TRIALS}-v3"

_MASK64 = (1 << 64) - 1


def _block_rng(seed: int, ctx: int, block: int) -> Generator:
    key = np.array([seed & _MASK64, ((ctx & 0xFFFFFFFF) << 32) | block], dtype=np.uint64)
    return Generator(Philox(key=key))


# ---------------------------------------------------------------------------
# samplers: each returns a (b, m) count matrix ("tally", "counts"), a
# row-sorted (b, n) symbol matrix ("sorted", "alias") or the sorted repeat
# labels of each row ("event"); all are exact multinomial.

_COUNT_PATHS = ("tally", "counts")
_TALLY_ROWS = 64  # rows drawn and counted at once: bounds the (rows, n) temporaries


def _sampler_path(source: Pmf, n: int, tables: Sequence[FTable]) -> str:
    """The block sampler's path, pinned per release.

    Per-trial cost is ~4m for the conditional-binomial chain, ~n to draw
    and tally, ~n log n to draw and sort, and ~(n^2/2m) log n for the
    event chain, whose per-round overhead loses below n = 256 or m = 16n.
    The event kernel needs every table to be shared by all symbols.
    """
    m = source.m
    direct = source.is_uniform() or source.two_band is not None
    if 4 * m <= n:
        return "tally" if direct else "counts"
    if not direct:
        return "alias"
    if n >= 256 and m >= 16 * n and all(t.group is None for t in tables):
        return "event"
    return "sorted"


class _AliasTable:
    """Vose alias table for arbitrary finite distributions."""

    def __init__(self, probs: np.ndarray) -> None:
        m = probs.size
        scaled = probs * m
        alias = np.arange(m, dtype=np.int64)
        accept = np.ones(m)
        small = [j for j in range(m) if scaled[j] < 1.0]
        large = [j for j in range(m) if scaled[j] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s, l = small.pop(), large.pop()
            accept[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        for j in small + large:
            accept[j] = 1.0
        self.accept = accept
        self.alias = alias
        self.m = m

    def draw(self, rng: Generator, shape) -> np.ndarray:
        idx = rng.integers(0, self.m, size=shape, dtype=np.int64)
        keep = rng.random(shape) < self.accept[idx]
        return np.where(keep, idx, self.alias[idx])


class _Repeats(NamedTuple):
    """An event-path block: n draws per row, and per row the label of the
    symbol each repeat draw hit, sorted; -1 - column pads short rows."""

    n: int
    labels: np.ndarray


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
        i = np.minimum(np.arange(n + 1), size)
        with np.errstate(divide="ignore"):
            self.a = np.concatenate([[0.0], np.cumsum(-np.log1p(-i / size)), [np.inf]])
        self.buckets = 4 * (n + 1)  # ~4 buckets per entry keep each walk to a step or two
        step = math.sqrt(self.a[np.isfinite(self.a)][-1]) / self.buckets or 1.0
        self.inv_step = 1.0 / step
        # guide[j] = #{k : A[k] <= ((j - 1) step)^2}: a search for x with
        # sqrt(x) in [j step, (j + 1) step) starts at or below its end
        grid = (np.maximum(np.arange(self.buckets + 1) - 1, 0) * step) ** 2
        self.guide = np.searchsorted(self.a, grid, side="right")

    def count_le(self, x: np.ndarray) -> np.ndarray:
        """#{k : A[k] <= x} for each x >= 0."""
        j = np.minimum(np.sqrt(x) * self.inv_step, self.buckets).astype(np.int64)
        end = self.guide[j]
        while (up := self.a[end] <= x).any():  # the closing inf stops every walk
            end += up
        return end

    def distinct(self, rng: Generator, draws: np.ndarray) -> np.ndarray:
        """Row i of the result lists, for each repeat among its draws[i]
        draws in order, the number of distinct symbols seen before it; 0
        pads rows with fewer repeats.  Each round draws the fresh run of
        every row still drawing from one Exp(1) variate."""
        b = draws.size
        rows = np.flatnonzero(draws > 0)
        left = draws[rows].astype(np.int64)
        seen = np.zeros(rows.size, dtype=np.int64)
        cols = []
        while rows.size:
            x = self.a[seen] + rng.standard_exponential(rows.size)
            fresh = np.minimum(self.count_le(x) - 1 - seen, left)
            seen += fresh
            left -= fresh
            more = left > 0
            rows, seen, left = rows[more], seen[more], left[more] - 1
            if rows.size:
                col = np.zeros(b, dtype=np.int64)
                col[rows] = seen
                cols.append(col)
        return np.stack(cols, axis=1) if cols else np.zeros((b, 0), dtype=np.int64)


def _band_draws(
    rng: Generator, n: int, band: tuple[int, float] | None, b: int
) -> list[np.ndarray]:
    """Per band, the draws of each of b rows: n for a uniform source, else
    k ~ Binomial(n, w1) in the first band and n - k in the second."""
    if band is None:
        return [np.full(b, n)]
    k = rng.binomial(n, band[1], size=b)
    return [k, n - k]


def _event_sampler(source: Pmf, n: int) -> Callable[[Generator, int], _Repeats]:
    """Event-path draws of n symbols from a uniform or two-band source."""
    m = source.m
    band = source.two_band
    sizes = [m] if band is None else [band[0], m - band[0]]
    chains = [_RepeatChain(size, n) for size in sizes]

    def draw_event(rng: Generator, b: int) -> _Repeats:
        split = _band_draws(rng, n, band, b)
        parts = [chain.distinct(rng, k) for chain, k in zip(chains, split)]
        seen = np.hstack(parts)
        # band i labels its symbols i*n + (order of first appearance)
        offset = np.repeat(np.arange(len(parts)) * n, [p.shape[1] for p in parts])
        labels = np.broadcast_to(-1 - np.arange(seen.shape[1]), seen.shape).copy()
        hit = seen > 0
        labels[hit] = rng.integers(0, seen[hit]) + np.broadcast_to(offset, seen.shape)[hit]
        labels.sort(axis=1)
        return _Repeats(n, labels)

    return draw_event


def _tally_sampler(source: Pmf, n: int) -> Callable[[Generator, int], np.ndarray]:
    """Count matrices of n draws per row from a uniform or two-band source.

    A two-band source splits k ~ Binomial(n, w1) per row, as the other
    direct paths do, and draws k symbols uniformly from [0, s) and n - k
    from [s, m).  Each chunk of rows is counted by one `bincount` per
    band of its symbols offset by row * m.
    """
    m = source.m
    dtype = np.uint16 if m <= 0xFFFF else np.uint32
    band = source.two_band
    ranges = [(0, m)] if band is None else [(0, band[0]), (band[0], m)]

    def draw_tally(rng: Generator, b: int) -> np.ndarray:
        split = _band_draws(rng, n, band, b)
        counts = np.empty((b, m), dtype=np.int64)
        for lo in range(0, b, _TALLY_ROWS):
            rows = slice(lo, lo + _TALLY_ROWS)
            c = min(_TALLY_ROWS, b - lo)
            offset = np.arange(c) * m
            tally = 0
            for (low, high), draws in zip(ranges, split):
                d = draws[rows]
                at = np.repeat(offset, d)
                at += rng.integers(low, high, size=at.size, dtype=dtype)
                tally = tally + np.bincount(at, minlength=c * m)
            counts[rows] = tally.reshape(c, m)
        return counts

    return draw_tally


def _make_sampler(
    source: Pmf, n: int, tables: Sequence[FTable]
) -> tuple[str, Callable[[Generator, int], np.ndarray | _Repeats]]:
    m = source.m
    probs = source.probs
    path = _sampler_path(source, n, tables)
    if path == "counts":
        def draw_counts(rng: Generator, b: int) -> np.ndarray:
            return rng.multinomial(n, probs, size=b)

        return path, draw_counts

    if path == "tally":
        return path, _tally_sampler(source, n)

    if path == "event":
        return path, _event_sampler(source, n)

    dtype = np.uint32 if m <= 0xFFFFFFFF else np.uint64
    if source.is_uniform():
        def draw_uniform(rng: Generator, b: int) -> np.ndarray:
            x = rng.integers(0, m, size=(b, n), dtype=dtype)
            x.sort(axis=1)
            return x

        return path, draw_uniform

    band = source.two_band
    if band is not None:
        s, w1 = band
        def draw_two_band(rng: Generator, b: int) -> np.ndarray:
            # symbol order is irrelevant after sorting, so put the
            # Binomial(n, w1) band-1 draws first
            k = rng.binomial(n, w1, size=b)
            x1 = rng.integers(0, s, size=(b, n), dtype=dtype)
            x2 = rng.integers(s, m, size=(b, n), dtype=dtype)
            x = np.where(np.arange(n, dtype=dtype)[None, :] < k[:, None], x1, x2)
            x.sort(axis=1)
            return x

        return path, draw_two_band

    table = _AliasTable(probs)
    def draw_alias(rng: Generator, b: int) -> np.ndarray:
        x = table.draw(rng, (b, n))
        x.sort(axis=1)
        return x

    return path, draw_alias


# ---------------------------------------------------------------------------
# statistic kernels


def _levels(
    path: str, data: np.ndarray | _Repeats
) -> Iterator[tuple[int, np.ndarray | None, np.ndarray]]:
    """(l, W_l, E_l) for l = 1, 2, ... up to the last non-empty level.

    E_l counts, per row, the windows of l equal draws: a symbol seen c
    times owns max(c - l + 1, 0) of them, so E_1 = n.  On sorted symbols
    W_l[:, i] marks x_i == x_{i+l-1} (W_1 is all true, given as None).
    A symbol seen c times leaves c - 1 repeat labels, so on the event
    path W_l marks the length-(l-1) windows of the sorted labels, with
    W_2 the non-pad slots.  Each W_{l+1} is W_l AND the adjacent-equal
    mask, shifted to the window's end.
    """
    if path == "event":
        n, x = data
        lag = 1
    else:
        x, n, lag = data, data.shape[1], 0
    eq = x[:, 1:] == x[:, :-1]
    yield 1, None, np.full(x.shape[0], n)
    w = x >= 0 if lag else eq
    for l in count(2):
        # summing the mask's bytes is ~2.5x faster than count_nonzero(axis=1)
        e = w.view(np.uint8).sum(axis=1, dtype=np.int32)
        if not e.any():
            return
        yield l, w, e
        w = w[:, :-1] & eq[:, l - 1 - lag:]


def _block_values(
    tables: Sequence[FTable], path: str, data: np.ndarray | _Repeats, m: int
) -> list[np.ndarray]:
    """Statistic values on one block: a (b, m) count matrix on the "tally"
    and "counts" paths, the sorted repeat labels on the "event" path, else
    a row-sorted (b, n) symbol matrix.

    With E_l the windows of `_levels`, S = sum_j f_j(0) + sum_l (D_l - D_{l-1}) E_l
    with D_l = f(l) - f(l-1) and D_0 = D_{K+1} = 0.  Windows stop at the
    first empty level; their counts are shared across statistics, and a
    reference-dependent table (sorted symbols only) weights each window
    by its symbol's entry.
    """
    if path in _COUNT_PATHS:
        return [t.values(data) for t in tables]
    x = data.labels if path == "event" else data
    steps = [dict(t.steps) for t in tables]
    cores, groups = [], []
    for t in tables:
        if t.group is None:
            cores.append(np.full(x.shape[0], m * t.f[0, 0]))
            groups.append(None)
        else:
            cores.append(np.full(x.shape[0], np.bincount(t.group, minlength=len(t.f)) @ t.f[:, 0]))
            groups.append(t.group[x])
    top = max((l for s in steps for l in s), default=0)
    for l, w, e in islice(_levels(path, data), top):
        for s, core, gx in zip(steps, cores, groups):
            d = s.get(l)
            if d is None:
                continue
            if gx is None:
                core += d[0] * e
            else:
                wd = d[gx[:, : gx.shape[1] - l + 1]]
                core += (wd if w is None else np.where(w, wd, 0.0)).sum(axis=1)
    return [core / t.scale + t.shift for t, core in zip(tables, cores)]


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
        """The sampler path of each estimate: "tally", "counts", "sorted",
        "alias" or "event", a fixed function of the source, n, m and
        statistic."""
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
        if count in (0, trials):
            ci = 0.0
        else:
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

    def run(block_ids: Iterable[int]) -> list:
        # each block's draw is dropped before the next one is made
        return [
            reduce(_block_values(tables, path, draw(_block_rng(seed, ctx, b), sizes[b]), source.m))
            for b in block_ids
        ]

    if streams == 1 or len(sizes) <= 1:
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
    tables = [stat.table(n, source.m) for stat in statistics]
    blocks = _run_blocks(source, tables, n, trials, seed, ctx, 1, lambda values: values)
    return [np.concatenate(chunks) for chunks in zip(*blocks)]


def sample_occupancy(p: Pmf, n: int, rng: Generator) -> OccupancyFingerprint:
    """Occupancy fingerprint of n i.i.d. draws from p: one row of the
    Monte Carlo block sampler, with the same path choice and exact law.
    Off the count paths Phi comes from the window counts E_l of `_levels`:
    Phi_l = E_l - 2 E_{l+1} + E_{l+2}, and E_1 - E_2 symbols are seen.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    path, draw = _make_sampler(p, n, ())
    data = draw(rng, 1)
    if path in _COUNT_PATHS:
        phi = np.bincount(data[0])
    else:
        e = np.array([int(el[0]) for _, _, el in _levels(path, data) if el[0]] + [0, 0])
        phi = np.concatenate([[p.m - e[0] + e[1]], e[:-2] - 2 * e[1:-1] + e[2:]])
    return OccupancyFingerprint(n=n, m=p.m, phi=phi)


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
        if np.any(np.diff(edges) < 0.0):
            raise ValueError("quantile function must be non-decreasing")
        self.m = m
        self.edges = edges

    def __call__(self, y):
        arr = np.asarray(y, dtype=np.float64)
        if np.any(arr < self.edges[0]) or np.any(arr > self.edges[-1]):
            raise ValueError(
                f"observation outside [{self.edges[0]}, {self.edges[-1]}]"
            )
        symbols = np.searchsorted(self.edges[1:-1], arr, side="right") + 1
        return int(symbols) if np.isscalar(y) else symbols
