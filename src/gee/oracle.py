"""Exact small-instance ground truth for separable statistics.

The exact law of an integer-valued separable statistic under i.i.d.
multinomial sampling is one log-spectrum sum.  With independent
Poisson(n p_j) counts, the k symbols of one (k, p_j, row) entry of
`FTable.groups` share one (count, value) array of Poisson weights (the
expectation and the moments sum over the same groups).  Each group's
array is transformed once, k log s of its spectrum s is summed over
the groups, and count n of the sum's exp, divided by its mass
P(Poisson(n) = n), is the conditional multinomial law.  Values run on
the excess axis f(c) - f(0) - c s, with s the slope f(1) - f(0) of one
drawn row (the counts sum to n, so the linear part is n s).

Only row n is read, so the grid holds what can reach it, count c at row
c mod L and value v at column v mod W; cells that fold together add.
L is the first fast length whose wrap onto count n, P(N >= n + L) +
P(N <= n - L) for N ~ Poisson(n), is below e^-46 by the bounds
exp(-n h(1 +- L/n)), h(y) = y log y - y + 1: a little above sqrt(92 n),
and below n from n = 126 on.  The value axis is a window a..b of the excess
inside the deviation bounds; Chernoff bounds on the Poissonized excess
put under e^-46 P(Poisson(n) = n) / 2 beyond each edge, and W is the
first fast length that holds it.  The budget charges max(4, groups)
windowed grids of L x W before any transform; four are live at most.

Round-off is absolute, ~1e-16 of the law's peak (log s is taken from
s - 1, the transform of the array less its unit mass, with counts 0 and
1, a sparse array's heavy cells, in closed form, so it keeps its digits
near s = 1).  Entries within 8 times the measured round-off are clipped:
a probability below ~1e-15 of the peak reads 0, one a little above
carries a relative error of that order.  One thread (no BLAS) and a
fixed group order make a given input's output bit-identical.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .pmf import Pmf
from .statistics import SeparableStatistic, ThresholdRule

__all__ = [
    "ExactDistribution",
    "OracleBudgetError",
    "ScalingError",
    "DEFAULT_CELL_BUDGET",
    "BRUTEFORCE_MAX_M",
    "exact_distribution",
    "exact_error_probs",
    "exact_expectation",
    "asymptotic_moments",
    "worst_case_bruteforce",
]

DEFAULT_CELL_BUDGET = 10**8
# a command-line contract, not a cost limit: the pruned walk keeps a few thousand
# prefixes at m = 7, mesh 200; an unpruned check walks 4.8M points at m = 6, 26M at 7
BRUTEFORCE_MAX_M = 6
# the odd parts 3^b 5^c of the lengths the FFT transforms fast, up to 2^40
_ODD = sorted(q for q in (3**b * 5**c for b in range(26) for c in range(18)) if q < 2**40)


class OracleBudgetError(RuntimeError):
    """The exact law would exceed the configured transform-cell budget."""


class ScalingError(ValueError):
    """The statistic is not integer-valued under the module's fixed scalings."""


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Exact law of a statistic: matching arrays of values and probabilities."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if support.shape != probs.shape or support.ndim != 1:
            raise ValueError("support and probs must be matching vectors")
        if not np.all(np.isfinite(support)):
            raise ValueError("support values must be finite")
        if not np.all(probs >= 0.0):  # NaN fails too
            raise ValueError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, not 1")
        order = np.argsort(support)
        support = support[order]
        probs = probs[order]
        support.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))


# ---------------------------------------------------------------------------
# integer cores and the log-spectrum law


def _deviation_bounds(core: np.ndarray, n: int) -> tuple[int, int]:
    """Safe bounds on sum_j (f_j(c_j) - f_j(0)) given sum_j c_j <= n.

    Each unit of count contributes at most max (f(c)-f(0))/c and at least
    the corresponding min, so n times those ratios bound the deviation:
    the largest ceil and the smallest floor of n (f(c)-f(0))/c, in exact
    integer arithmetic.
    """
    lim = np.iinfo(np.int64).max // (2 * max(n, 1))
    if core.size and not -lim <= core.min() <= core.max() <= lim:
        core = core.astype(object)  # n (f(c) - f(0)) could overflow int64: use Python ints
    dev = n * (core[:, 1:] - core[:, :1])
    c = np.arange(1, core.shape[1])
    return int((dev // c).min(initial=0)), int((-(-dev // c)).max(initial=0))


def _fast_len(size: int) -> int:
    """Smallest 2^a 3^b 5^c >= size, a length the FFT transforms fast."""
    return min(q << ((size - 1) // q).bit_length() for q in _ODD[: bisect.bisect(_ODD, 2 * size)])


def _count_len(n: int) -> int:
    """Smallest fast length L whose wrap onto count n, P(N >= n + L) +
    P(N <= n - L) for N ~ Poisson(n), stays below e^-46 by the bounds
    exp(-n h(1 +- L/n)), h(y) = y log y - y + 1 (h(0) = 1, and no count lies
    below 0).  h(1 + x) <= x^2/2, so no length up to sqrt(92 n) passes."""
    size = _fast_len(math.isqrt(92 * n) + 1)
    while n and sum(math.exp(46.0 - n * (y * math.log(y) - y + 1.0 if y else 1.0))
                    for y in (1.0 + size / n, 1.0 - size / n) if y >= 0.0) >= 1.0:
        size = _fast_len(size + 1)
    return size


def _add_log1p(total: np.ndarray, z: np.ndarray, k: int) -> None:
    """total += k log(1 + z), the real part's digits kept near z = 0 (which
    numpy's complex log1p loses) and where |1 + z| is small."""
    x, y = z.real, z.imag
    sq = y * y
    near = x * x + sq < 0.25
    mag = (2.0 + x) * x + sq
    np.log1p(mag, out=mag, where=near)
    with np.errstate(divide="ignore"):  # 1 + z = 0: log 0 = -inf, and exp(-inf) = 0
        np.log((1.0 + x) ** 2 + sq, out=mag, where=~near)
    del sq, near
    total.real += (0.5 * k) * mag  # parts apart: -inf times a complex k is nan
    total.imag += k * np.arctan2(y, 1.0 + x, out=y)


def _unit(cycles: np.ndarray) -> np.ndarray:
    """exp(-2 pi i x) - 1 at signed x in [-1/2, 1/2], its digits kept near 0."""
    return -2.0 * np.sin(np.pi * cycles) ** 2 - 1j * np.sin(2.0 * np.pi * cycles)


def _row_n(bases, n: int, shape: tuple[int, int]) -> np.ndarray:
    """Row n of the convolution of each base (weights of counts 0..n less the
    unit mass at count 0, value 0; their value columns; k) raised to its
    power k, count c at row c mod shape[0] and value v at column v mod
    shape[1]: the exp of the sum of k log s over the bases' spectra s on the
    `shape` grid, read at count n by one twiddle sum.

    Counts 0 and 1 join the spectrum in closed form, w0 + w1 (1 + u)(1 + v)
    with u and v the two phases less 1, each to full relative precision:
    where the law's mass is, s is near 1, and a sparse base's two heavy
    cells would leave s - 1 an absolute round-off of their size, which k
    multiplies."""
    size, width = shape
    total = np.zeros((size, width // 2 + 1), dtype=complex)
    rows = np.arange(n + 1) % size
    u = _unit(np.fft.fftfreq(size))[:, None]
    cycles, half = np.fft.fftfreq(width), np.arange(width // 2 + 1)
    for weights, columns, k in bases:
        z = np.zeros(shape)
        np.add.at(z, (rows[2:], columns[2:]), weights[2:])  # counts that fold onto one cell add
        z = np.fft.rfft(z)  # rfft2 in two steps frees the base before the second
        z = np.fft.fft(z, axis=0)
        z += (weights[0] + weights[1]) + weights[1] * u  # count 1 at value 0: w0 + w1 (1 + u)
        if columns[1]:  # at value column c, w1 (1 + u) v more, v = e^(-2 pi i c / width) - 1
            z += (weights[1] * (1.0 + u)) * _unit(cycles[half * columns[1] % width])
        _add_log1p(total, z, k)
    np.exp(total, out=total)
    twiddle = np.exp(2j * np.pi * (np.arange(size) * n % size) / size) / size
    return np.fft.irfft(np.einsum("i,ij->j", twiddle, total), width)  # no BLAS threads


def _window(logw, e, k, n: int, lo: int, up: int) -> tuple[int, int]:
    """The values a..b of lo..up to keep: beyond each edge the excess V of the
    Poissonized law (groups of k symbols with log weights logw on excess
    values e) has under e^-46 P(Poisson(n) = n) / 2.

    By Chernoff, P(V >= x) <= exp(K(t) - t x) and P(V <= x) <= exp(K(-t) + t x)
    for every t > 0, K(t) = sum k log sum_c w(c) e^(t e(c)).  Each t of a
    geometric grid in units of V's standard deviation gives an edge, where
    its bound meets that mass; the nearest edge on each side stands."""
    w = np.exp(logw)
    sd = math.sqrt(max(k @ (np.sum(w * e * e, axis=1) - np.sum(w * e, axis=1) ** 2), 1.0))
    tilt = np.outer([1.0, -1.0], np.ldexp(1.0, np.arange(-3, 6))) / sd
    terms = logw + tilt[..., None, None] * e
    peak = terms.max(axis=-1)
    cumulant = (np.log(np.exp(terms - peak[..., None]).sum(axis=-1)) + peak) @ k
    edge = (cumulant + 46.0 + math.log(2.0) + n - n * math.log(n) + math.lgamma(n + 1)) / tilt
    return max(lo, math.floor(edge[1].max()) + 1), min(up, math.ceil(edge[0].min()) - 1)


def _core_distribution(
    stat: SeparableStatistic, p: Pmf, n: int, budget: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Exact law in core units: (core values, probs, scale, shift)."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    t = stat.table(n, p.m)
    levels = t.f[:, np.minimum(np.arange(n + 1), t.K)]  # rows at counts 0..n
    core = np.rint(levels)
    if np.max(np.abs(levels - core)) > 1e-9:
        raise ScalingError(
            f"{stat.name}: the exact law needs an integer-valued f table (scale {t.scale})"
        )
    core = core.astype(np.int64)
    groups = t.groups(p)
    base = sum(k * int(core[g, 0]) for k, _, g in groups)
    if n == 0:  # every count is 0
        return np.array([base]), np.ones(1), t.scale, t.shift
    drawn = [(k, pj, g) for k, pj, g in groups if pj > 0.0]
    rows = sorted({g for _, _, g in drawn})
    # counts sum to n, so n times one drawn row's slope f(1) - f(0) is an exact
    # linear part of the core; carry only the excess.  The shifted ratios
    # (f(c) - f(0)) / c - slope straddle 0, so lo..up is never wider than
    # unshifted, and the slope is a multiple of the unshifted gcd
    slope = int(core[rows[0], 1] - core[rows[0], 0])
    excess = core - core[:, :1] - slope * np.arange(n + 1)
    # excess steps are multiples of the gcd, so the transforms run on excess / gcd
    step = max(int(np.gcd.reduce(excess[rows], axis=None)), 1)
    excess //= step
    lo, up = _deviation_bounds(excess[rows], n)
    # Poisson(n p) weights of counts 0..n; only these reach row n
    lgammas = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    logw = np.array([-n * pj + np.arange(n + 1) * math.log(n * pj) - lgammas
                     for _, pj, _ in drawn])
    k = np.array([k for k, _, _ in drawn])
    e = excess[[g for _, _, g in drawn]]
    a, b = _window(logw, e, k, n, lo, up)
    shape = (_count_len(n), _fast_len(b - a + 1))
    # four grids live at most (the sum, a base, its transform's two stages),
    # and one transform per group: this bounds memory (8 B a cell) and time
    grids = max(len(drawn), 4)
    cells = grids * shape[0] * shape[1]
    if cells > budget:
        raise OracleBudgetError(f"log-spectrum law needs {cells} transform cells ({grids} "
                                f"grids of {shape[0]}x{shape[1]}), over the budget of {budget}")

    w = np.exp(logw)
    w[:, 0] = np.expm1(-n * np.array([pj for _, pj, _ in drawn]))  # less the unit mass: s - 1
    row = _row_n(zip(w, e % shape[1], k.tolist()), n, shape)
    # round-off is at least an ulp of the peak and the depth of the deepest
    # negative entry, and its positive entries reached ~1.6 times that over
    # the shift-add reference matrix: clip
    floor = 8.0 * max(-row.min(), np.finfo(float).eps * row.max())
    vec = np.roll(np.where(row > floor, row, 0.0), -a)[: b - a + 1]
    vec /= vec.sum()  # the mass is P(Poisson(n) = n) up to round-off
    mask = vec > 0.0
    values = base + n * slope + step * (a + np.flatnonzero(mask).astype(np.int64))
    return values, vec[mask], t.scale, t.shift


def exact_distribution(
    stat: SeparableStatistic, p: Pmf, n: int, budget: int = DEFAULT_CELL_BUDGET
) -> ExactDistribution:
    """Exact law of a separable statistic under n i.i.d. draws from p."""
    values, probs, scale, shift = _core_distribution(stat, p, n, budget)
    return ExactDistribution(values / scale + shift, probs)


def exact_error_probs(
    stat: SeparableStatistic,
    rule: ThresholdRule,
    p_null: Pmf,
    p_alt: Pmf,
    n: int,
    budget: int = DEFAULT_CELL_BUDGET,
) -> tuple[float, float]:
    """Exact (P_F, P_M) of `reject iff stat >= rule.cut` at sample size n.

    Threshold comparisons happen in the statistic's integer core units,
    so fractional shifts like n^2/m never blur a tie.  When p_alt is
    p_null the null law serves both.
    """
    if p_null.m != p_alt.m:
        raise ValueError(f"alphabet sizes differ: {p_null.m} vs {p_alt.m}")
    if (rule.n, rule.m, rule.statistic) != (n, p_null.m, stat):
        raise ValueError(
            f"rule was built for {rule.statistic.name} at n={rule.n}, m={rule.m}; "
            f"got {stat.name} at n={n}, m={p_null.m}"
        )
    values0, probs0, scale, shift = _core_distribution(stat, p_null, n, budget)
    if p_alt is p_null:
        values1, probs1 = values0, probs0
    else:
        values1, probs1, _, _ = _core_distribution(stat, p_alt, n, budget)
    core_cut = (rule.cut - shift) * scale
    return _mass(probs0, values0 >= core_cut), _mass(probs1, values1 < core_cut)


def _mass(probs: np.ndarray, where: np.ndarray) -> float:
    """probs[where].sum(), or 1 less the rest's sum where that is over 1/2:
    summed on the lighter side, a cut past every value reads exactly 0 or 1."""
    mass = float(probs[where].sum())
    return mass if mass <= 0.5 else 1.0 - float(probs[~where].sum())


def exact_expectation(stat: SeparableStatistic, p: Pmf, n: int) -> float:
    """Exact E[stat] via binomial marginals: E sum_j f_j(B_j), B_j ~ Bin(n, p_j),
    summed over the table's symbol groups (`FTable.mean`).

    Valid because expectation is linear across the multinomial marginals;
    for the coincidence statistic under uniform p this reduces to
    -n (1 - 1/m)^(n-1).
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    t = stat.table(n, p.m)
    return t.mean(t.groups(p), n)


def asymptotic_moments(
    stat: SeparableStatistic, nu: Pmf, n: int
) -> tuple[float, float | None]:
    """Second-order mean expansion and leading-order variance.

    mean ~ sum_j f_j(0) + n sum_j nu_j (f_j(1) - f_j(0))
           + n^2/2 sum_j nu_j^2 (f_j(0) - 2 f_j(1) + f_j(2)),
    with remainder O(n^3/m^2) when max_j m nu_j stays bounded.

    The variance branch applies only to symmetric statistics (one row for
    every symbol) with f(0) = 0 and f(2) != 2 f(1) (the coincidence family);
    it returns (n^2/m) (f(2) - 2 f(1))^2 (m sum nu_j^2) / 2, and None otherwise.
    Here f_j is the true per-symbol value core_j/scale + shift/m; none
    of the statistics carries an extra -n shift.  Both sum over symbol groups.
    """
    m = nu.m
    t = stat.table(n, m)
    k, pj, g = map(np.array, zip(*t.groups(nu)))
    rows = t.f[g][:, np.minimum(np.arange(3), t.K)] / t.scale + t.shift / m
    f0, f1, f2 = rows.T
    mean = float(k @ (f0 + n * pj * (f1 - f0) + 0.5 * n * n * pj * pj * (f0 - 2 * f1 + f2)))
    var: float | None = None
    if np.all(rows == rows[0]) and f0[0] == 0.0 and f2[0] != 2.0 * f1[0]:
        var = float(0.5 * (n * n / m) * (f2[0] - 2 * f1[0]) ** 2 * (m * (k @ (pj * pj))))
    return mean, var


# ---------------------------------------------------------------------------
# brute-force worst case


def _partition_levels(
    total: int, slots: int, cap: int, shell: float, best: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Non-increasing rows of `slots` non-negative ints at most `cap` summing
    to `total`, in descending lexicographic order, and their sums x^2.  A
    prefix takes each next entry from min(what is left, its last entry) down
    to ceil(what is left / slots left); the last column is forced.

    A prefix is dropped when its greedy completion (entry, ..., entry, rest,
    0, ...) has sum |slots x - total| below `shell`: that completion
    majorizes every other and the sum is Schur-convex.  Given a bound `best`
    on the least sum x^2 in the shell (total^2 bounds every row), each
    column lowers it to its least greedy completion in the shell, then drops
    a prefix whose sum x^2 plus left^2 / slots left exceeds it; ties survive.
    Only the prefixes a column keeps are written out."""
    entry = np.arange(min(total, cap), -(-total // slots) - 1, -1, dtype=np.int64)
    rows, parent = np.zeros((1, 0), dtype=np.int64), np.zeros(entry.size, dtype=np.intp)
    left, sq = total - entry, entry * entry
    tv = dev = np.abs(slots * entry - total)
    for k in range(slots - 1, 0, -1):  # slots left after this column
        full, rest = np.divmod(left, np.maximum(entry, 1))
        keep = tv + full * dev + np.abs(slots * rest - total) + (k - full - 1) * total >= shell
        if best is not None:
            best = np.min(sq + full * entry * entry + rest * rest, where=keep, initial=best)
            keep &= k * sq + left * left <= k * best
        keep = np.flatnonzero(keep)
        entry, left, sq, tv = entry[keep], left[keep], sq[keep], tv[keep]
        rows = np.column_stack([rows[parent[keep]], entry])
        hi = np.minimum(left, entry)
        size = np.maximum(hi + 1 + (-left // k), 0)  # hi - ceil(left / k) + 1
        parent = np.repeat(np.arange(hi.size), size)
        entry = (hi - size + np.cumsum(size))[parent] - np.arange(parent.size)  # from hi down
        left, sq = left[parent] - entry, sq[parent] + entry * entry
        dev = np.abs(slots * entry - total)
        tv = tv[parent] + dev
    # the test on the column before was exact for the forced last entry
    return np.column_stack([rows[parent], entry]), sq


def worst_case_bruteforce(m: int, eps: float, mesh: int) -> tuple[Pmf, float]:
    """Grid minimization of the chi-square functional over the TV-eps shell.

    Walks the sorted simplex grid of resolution 1/mesh (the functional and the
    shell are permutation-invariant) in descending lexicographic order, with
    exact integer sums of the grid counts x: sum x^2 and sum |m x - mesh|,
    by branch and bound (`_partition_levels`): a subtree is skipped when no
    row of it reaches the shell or none can tie the least sum x^2 of a point
    already found in it.  Returns the first point of least sum x^2 and its
    value m sum x^2 / mesh^2.  Small m only."""
    if not 2 <= m <= BRUTEFORCE_MAX_M:
        raise ValueError(f"brute force supports 2 <= m <= {BRUTEFORCE_MAX_M}, got {m}")
    if mesh < 1:
        raise ValueError(f"mesh must be >= 1, got {mesh}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")

    shell = (eps - 1e-12) * 2 * m * mesh
    rows, sq = _partition_levels(mesh, m, mesh, shell, mesh * mesh)
    if not sq.size:
        raise ValueError(f"no grid point at TV distance >= {eps} from uniform (mesh {mesh})")
    k = int(np.argmin(sq))
    return Pmf(rows[k] / mesh), m * int(sq[k]) / mesh**2
