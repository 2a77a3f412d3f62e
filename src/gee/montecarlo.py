"""High-throughput Monte Carlo estimation of the error probabilities.

Reproducibility contract: trials are processed in fixed blocks of
BLOCK_TRIALS, and block b of an estimation context draws from a Philox
generator keyed by (seed, context, b).  Estimates are integer counts
summed over blocks, so results are bit-identical for any stream count
and any worker count; `streams` only chooses how blocks are distributed
across threads.  The sampling path (per-symbol counts vs sorted symbol
draws) is a fixed function of (n, m) recorded below, and both paths
sample the exact multinomial law.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
RNG_ALGORITHM = f"philox4x64-block{BLOCK_TRIALS}"

_MASK64 = (1 << 64) - 1


def _block_rng(seed: int, ctx: int, block: int) -> Generator:
    key = np.array([seed & _MASK64, ((ctx & 0xFFFFFFFF) << 32) | block], dtype=np.uint64)
    return Generator(Philox(key=key))


# ---------------------------------------------------------------------------
# samplers: each returns either a (b, m) count matrix ("counts") or a
# row-sorted (b, n) symbol matrix ("sorted"); both are exact multinomial.


def _use_counts_path(n: int, m: int) -> bool:
    # per-trial cost ~4*m for the conditional-binomial chain vs ~n log n
    # for draw-and-sort; the crossover is pinned per release
    return 4 * m <= n


def _two_band_split(probs: np.ndarray) -> tuple[int, float] | None:
    """(band size, band mass) when probs is [hi]*s + [lo]*(m-s), else None."""
    vals = np.unique(probs)
    if vals.size != 2 or np.any(np.diff(probs) > 0.0):
        return None
    s = int(np.count_nonzero(probs == vals[1]))
    return s, float(probs[:s].sum())


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


def _make_sampler(source: Pmf, n: int) -> tuple[str, Callable[[Generator, int], np.ndarray]]:
    m = source.m
    probs = source.probs
    if _use_counts_path(n, m):
        def draw_counts(rng: Generator, b: int) -> np.ndarray:
            return rng.multinomial(n, probs, size=b)

        return "counts", draw_counts

    dtype = np.uint32 if m <= 0xFFFFFFFF else np.uint64
    if source.is_uniform():
        def draw_uniform(rng: Generator, b: int) -> np.ndarray:
            x = rng.integers(0, m, size=(b, n), dtype=dtype)
            x.sort(axis=1)
            return x

        return "sorted", draw_uniform

    band = _two_band_split(probs)
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

        return "sorted", draw_two_band

    table = _AliasTable(probs)
    def draw_alias(rng: Generator, b: int) -> np.ndarray:
        x = table.draw(rng, (b, n))
        x.sort(axis=1)
        return x

    return "sorted", draw_alias


# ---------------------------------------------------------------------------
# statistic kernels


def _block_values(
    tables: Sequence[FTable], path: str, data: np.ndarray, m: int
) -> list[np.ndarray]:
    """Statistic values on one block: a (b, m) count matrix on the "counts"
    path, else a row-sorted (b, n) symbol matrix.

    For sorted rows, with E_l the number of positions i in a row where
    x_i == x_{i+l-1} (so E_1 = n), a symbol seen c times owns
    max(c - l + 1, 0) of them, and S = sum_j f_j(0) + sum_l (D_l - D_{l-1}) E_l
    with D_l = f(l) - f(l-1) and D_0 = D_{K+1} = 0.  Windows stop at the
    first empty level; their counts are shared across statistics, and a
    reference-dependent table weights each window by its symbol's entry.
    """
    if path == "counts":
        return [t.values(data) for t in tables]
    b, n = data.shape
    counts = {1: np.full(b, n) if n else None}

    def window(l: int) -> np.ndarray:
        return data[:, l - 1:] == data[:, : n - l + 1]

    def count(l: int) -> np.ndarray | None:
        if l not in counts:
            e = np.count_nonzero(window(l), axis=1) if l <= n else None
            counts[l] = e if e is not None and e.any() else None
        return counts[l]

    out = []
    for t in tables:
        if t.group is None:
            core = np.full(b, m * t.f[0, 0])
        else:
            gx = t.group[data]
            core = np.full(b, np.bincount(t.group, minlength=len(t.f)) @ t.f[:, 0])
        for l, d in t.steps:
            e = count(l)
            if e is None:
                break
            if t.group is None:
                core += d[0] * e
            else:
                w = d[gx[:, : n - l + 1]]
                core += (w if l == 1 else np.where(window(l), w, 0.0)).sum(axis=1)
        out.append(core / t.scale + t.shift)
    return out


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


def _block_sizes(trials: int) -> list[int]:
    full, rem = divmod(trials, BLOCK_TRIALS)
    return [BLOCK_TRIALS] * full + ([rem] if rem else [])


def _count_event(
    source: Pmf,
    stat: SeparableStatistic,
    cut: float,
    below: bool,
    n: int,
    trials: int,
    seed: int,
    ctx: int,
    streams: int,
) -> int:
    table = stat.table(n, source.m)
    path, draw = _make_sampler(source, n)
    sizes = _block_sizes(trials)

    def run(block_ids: Sequence[int]) -> int:
        total = 0
        for blk in block_ids:
            data = draw(_block_rng(seed, ctx, blk), sizes[blk])
            values = _block_values([table], path, data, source.m)[0]
            hits = (values < cut) if below else (values >= cut)
            total += int(hits.sum())
        return total

    if streams == 1 or len(sizes) == 1:
        return run(range(len(sizes)))
    chunks = np.array_split(np.arange(len(sizes)), min(streams, len(sizes)))
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return sum(pool.map(run, chunks))


def estimate_pf(plan: SimPlan, ctx: int = 0) -> ErrorEstimate:
    """Monte Carlo false-alarm probability: reject frequency under the uniform null."""
    count = _count_event(
        uniform(plan.m),
        plan.rule.statistic,
        plan.rule.cut,
        below=False,
        n=plan.n,
        trials=plan.trials,
        seed=plan.seed,
        ctx=ctx,
        streams=plan.streams,
    )
    return ErrorEstimate.from_count(count, plan.trials)


def estimate_pm(plan: SimPlan, ctx: int = 1) -> ErrorEstimate:
    """Monte Carlo missed-detection probability: accept frequency under the
    plan's alternative (worst-case bi-uniform unless overridden)."""
    count = _count_event(
        plan.alternative,
        plan.rule.statistic,
        plan.rule.cut,
        below=True,
        n=plan.n,
        trials=plan.trials,
        seed=plan.seed,
        ctx=ctx,
        streams=plan.streams,
    )
    return ErrorEstimate.from_count(count, plan.trials)


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
    path, draw = _make_sampler(source, n)
    blocks = [
        _block_values(tables, path, draw(_block_rng(seed, ctx, blk), size), source.m)
        for blk, size in enumerate(_block_sizes(trials))
    ]
    return [np.concatenate(chunks) for chunks in zip(*blocks)]


def sample_occupancy(p: Pmf, n: int, rng: Generator) -> OccupancyFingerprint:
    """Occupancy fingerprint of n i.i.d. draws from p: one row of the
    Monte Carlo block sampler, with the same path choice and exact law."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    path, draw = _make_sampler(p, n)
    row = draw(rng, 1)[0]
    counts = row if path == "counts" else np.bincount(row, minlength=p.m)
    return OccupancyFingerprint(n=n, m=p.m, phi=np.bincount(counts))


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
        rows.append(SweepRow(n=n, m=m, r=n * n / m, pf=pf, pm=pm, flags=tuple(flags)))
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
