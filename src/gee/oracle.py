"""Exact small-instance ground truth for separable statistics.

The exact law of an integer-valued separable statistic under i.i.d.
multinomial sampling comes from group powering.  With independent
Poisson(n p_j) counts, symbols sharing (p_j, table row) share one
(count, value) array of Poisson weights.  Each group's array is raised
to its multiplicity by binary repeated squaring with FFT products, the
group results are convolved, and count n is read off; one division by
its mass, P(Poisson(n) = n), makes that the conditional multinomial
law.  Values run on the excess axis f(c) - f(0) - c (f(1) - f(0)) when
every drawn row has the same slope f(1) - f(0) (the counts sum to n, so
the linear part is n times that slope), else on the plain axis.

FFT round-off is absolute: from ~1e-16 of the largest entry up to
~1e-12 at 1e5 symbols.  Entries within 8 times it are clipped, so a
probability below ~1e-15 of the law's peak reads 0, and one a little
above carries a relative error of that order.
The program runs single-threaded with a fixed group order, so a given
input always produces bit-identical output regardless of how callers
thread around it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .pmf import Pmf, uniform, tv_distance, chi_square_functional
from .statistics import FTable, SeparableStatistic, ThresholdRule, binomial_pmf

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
BRUTEFORCE_MAX_M = 6  # the sorted grid at m = 6, mesh 200 already has 4.8M points


class OracleBudgetError(RuntimeError):
    """The group powering would exceed the configured transform-cell budget."""


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
        if np.any(probs < 0.0):
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
# per-symbol f tables


def _symbol_groups(t: FTable, p: Pmf) -> Counter[tuple[float, int]]:
    """Multiplicity of each (p_j, table row) pair, in order of first appearance."""
    rows = np.zeros(p.m, dtype=np.int64) if t.group is None else t.group
    return Counter(zip(p.probs.tolist(), rows.tolist()))


def _levels(t: FTable, n: int) -> np.ndarray:
    """Table rows at counts 0..n, shape (g, n+1)."""
    return t.f[:, np.minimum(np.arange(n + 1), t.K)]


# ---------------------------------------------------------------------------
# integer cores and group powering


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


def _poisson_weights(lam: float, n: int) -> np.ndarray:
    """Poisson(lam) pmf at 0..n."""
    if lam == 0.0:
        w = np.zeros(n + 1)
        w[0] = 1.0
        return w
    cs = np.arange(n + 1, dtype=np.float64)
    logs = -lam + cs * math.log(lam) - np.array(
        [math.lgamma(c + 1) for c in range(n + 1)]
    )
    return np.exp(logs)


def _fast_len(size: int) -> int:
    """Smallest 2^a 3^b 5^c >= size, a length the FFT transforms fast."""
    odd = [3**b * 5**c for b in range(size.bit_length() + 1) for c in range(size.bit_length() + 1)]
    return min(q << ((size - 1) // q).bit_length() for q in odd)


def _powering_steps(k: int) -> list[bool]:
    """Left-to-right binary powering to k >= 1: True squares, False
    multiplies by the base."""
    return [square for bit in bin(k)[3:] for square in ((True, False) if bit == "1" else (True,))]


def _convolution_power(bases, n: int, width: int, shape: tuple[int, int], window) -> np.ndarray:
    """Convolution of every base array raised to its power k, by binary
    powering with real 2-D FFT products on `shape`.

    `bases` yields (weights at counts 0..n, their value columns, k).  Every
    product is cropped to counts 0..n and the value `window`: counts never
    decrease, and every state of total count <= n lies in the window, so
    the crop is exact.
    """
    def convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft2(x, shape)
        spectrum *= spectrum if y is x else np.fft.rfft2(y, shape)
        spectrum = np.fft.ifft(spectrum, axis=0)[: n + 1]  # counts 0..n only
        return np.fft.irfft(spectrum, shape[1])[:, window].copy()

    law = None
    for weights, columns, k in bases:
        base = np.zeros((n + 1, width))
        base[np.arange(n + 1), columns] = weights
        power = base
        for square in _powering_steps(k):
            power = convolve(power, power if square else base)
        law = power if law is None else convolve(law, power)
    return law


def _core_distribution(
    stat: SeparableStatistic, p: Pmf, n: int, budget: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Exact law in core units: (core values, probs, scale, shift)."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    t = stat.table(n, p.m)
    levels = _levels(t, n)
    core = np.rint(levels)
    if np.max(np.abs(levels - core)) > 1e-9:
        raise ScalingError(
            f"{stat.name}: the exact law needs an integer-valued f table (scale {t.scale})"
        )
    core = core.astype(np.int64)
    groups = _symbol_groups(t, p)
    base = sum(k * int(core[g, 0]) for (_, g), k in groups.items())
    drawn = {(pj, g): k for (pj, g), k in groups.items() if pj > 0.0}
    rows = sorted({g for _, g in drawn})
    # counts sum to n, so when every drawn row has the same slope f(1) - f(0)
    # the linear part of the core is n * slope exactly; carry only the excess
    slopes = np.unique(core[rows, min(n, 1)] - core[rows, 0])
    slope = int(slopes[0]) if slopes.size == 1 else 0
    excess = core - core[:, :1] - slope * np.arange(n + 1)
    # excess steps are multiples of the gcd, so the powering runs on excess / gcd
    step = max(int(np.gcd.reduce(excess[rows], axis=None)), 1)
    excess //= step
    lo, up = _deviation_bounds(excess[rows], n)
    width = up - lo + 1
    # a product spans counts 0..2n and values 2lo..2up, at offset 2lo; only
    # counts 0..n and values lo..up are kept, so the rest may alias unseen
    shape = (_fast_len(2 * n + 1), _fast_len(width + max(up, -lo)))
    # a product holds up to three grid-sized float arrays at once (two
    # operand spectra and an inverse), so this bounds memory as well as time
    products = max(len(drawn) - 1 + sum(len(_powering_steps(k)) for k in drawn.values()), 1)
    cells = 3 * products * shape[0] * shape[1]
    if cells > budget:
        raise OracleBudgetError(
            f"group powering needs {cells} transform cells ({products} products x 3 grids "
            f"of {shape[0]}x{shape[1]}), over the budget of {budget}"
        )

    bases = ((_poisson_weights(n * pj, n), excess[g] - lo, k) for (pj, g), k in drawn.items())
    law = _convolution_power(bases, n, width, shape, slice(-lo, width - lo))
    # round-off is at least an ulp of the peak and the depth of the deepest
    # negative entry, and its positive entries reach ~2.4 times that: clip
    vec = np.where(law[n] > 8.0 * max(-law.min(), np.finfo(float).eps * law.max()), law[n], 0.0)
    vec /= vec.sum()  # the mass is P(Poisson(n) = n) up to round-off
    mask = vec > 0.0
    values = base + n * slope + step * (lo + np.flatnonzero(mask).astype(np.int64))
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
    pf = min(1.0, float(probs0[values0 >= core_cut].sum()))
    pm = min(1.0, float(probs1[values1 < core_cut].sum()))
    return pf, pm


def exact_expectation(stat: SeparableStatistic, p: Pmf, n: int) -> float:
    """Exact E[stat] via binomial marginals: E sum_j f_j(B_j), B_j ~ Bin(n, p_j).

    Valid because expectation is linear across the multinomial marginals;
    for the coincidence statistic under uniform p this reduces to
    -n (1 - 1/m)^(n-1).
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    t = stat.table(n, p.m)
    levels = _levels(t, n)
    total = 0.0
    for (pj, g), count in _symbol_groups(t, p).items():
        binom = np.array([binomial_pmf(c, n, pj) for c in range(n + 1)])
        total += count * float(levels[g] @ binom)
    return total / t.scale + t.shift


def asymptotic_moments(
    stat: SeparableStatistic, nu: Pmf, n: int
) -> tuple[float, float | None]:
    """Second-order mean expansion and leading-order variance.

    mean ~ sum_j f_j(0) + n sum_j nu_j (f_j(1) - f_j(0))
           + n^2/2 sum_j nu_j^2 (f_j(0) - 2 f_j(1) + f_j(2)),
    with remainder O(n^3/m^2) when max_j m nu_j stays bounded.

    The variance branch applies only to symmetric statistics with
    f(0) = 0 and f(2) != 2 f(1) (the coincidence family); it returns
    (n^2/m) (f(2) - 2 f(1))^2 (m sum nu_j^2) / 2, and None otherwise.
    Here f_j is the true per-symbol value core_j/scale + shift/m; none
    of the statistics carries an extra -n shift.
    """
    m = nu.m
    t = stat.table(n, m)
    rows = _levels(t, 2) / t.scale + t.shift / m
    table = np.broadcast_to(rows if t.group is None else rows[t.group], (m, 3))
    f0, f1, f2 = table[:, 0], table[:, 1], table[:, 2]
    v = nu.probs
    mean = float(f0.sum() + n * np.dot(v, f1 - f0) + 0.5 * n * n * np.dot(v * v, f0 - 2 * f1 + f2))
    symmetric = bool(np.all(table == table[0]))
    var: float | None = None
    if symmetric and f0[0] == 0.0 and f2[0] != 2.0 * f1[0]:
        var = float(0.5 * (n * n / m) * (f2[0] - 2 * f1[0]) ** 2 * (m * np.dot(v, v)))
    return mean, var


# ---------------------------------------------------------------------------
# brute-force worst case


def _partitions(total: int, slots: int, max_val: int) -> np.ndarray:
    """Non-increasing rows of `slots` non-negative ints at most max_val,
    summing to `total`, in descending lexicographic order.

    Built one column at a time: each row is expanded into its next
    entries, largest first, from min(what is left, the entry before)
    down to the ceiling of what is left over the slots left.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total])
    cap = np.array([max_val])
    for k in range(slots, 0, -1):
        hi = np.minimum(left, cap)
        size = np.maximum(hi + 1 + (-left // k), 0)  # hi - ceil(left / k) + 1
        parent = np.repeat(np.arange(hi.size), size)
        start = np.repeat(np.cumsum(size) - size, size)
        cap = hi[parent] - (np.arange(parent.size) - start)
        rows = np.column_stack([rows[parent], cap])
        left = left[parent] - cap
    return rows


def worst_case_bruteforce(m: int, eps: float, mesh: int) -> tuple[Pmf, float]:
    """Grid minimization of the chi-square functional over the TV-eps shell.

    Enumerates the simplex grid of resolution 1/mesh (sorted entries only;
    both the functional and the constraint are permutation-invariant),
    one leading entry at a time in descending lexicographic order, and
    returns the first best grid point and its value.  Small m only.
    """
    if not 2 <= m <= BRUTEFORCE_MAX_M:
        raise ValueError(f"brute force supports 2 <= m <= {BRUTEFORCE_MAX_M}, got {m}")
    if mesh < 1:
        raise ValueError(f"mesh must be >= 1, got {mesh}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")

    best_val = math.inf
    best_q: np.ndarray | None = None
    for head in range(mesh, -(-mesh // m) - 1, -1):
        tail = _partitions(mesh - head, m - 1, head)
        grid = np.column_stack([np.full(len(tail), head), tail]) / mesh
        tv = 0.5 * np.abs(grid - 1.0 / m).sum(axis=1)
        feas = grid[tv >= eps - 1e-12]
        if len(feas):
            chi = m * np.einsum("ij,ij->i", feas, feas)
            k = int(np.argmin(chi))
            if chi[k] < best_val:
                best_val, best_q = float(chi[k]), feas[k]

    if best_q is None:
        raise ValueError(
            f"no grid point at TV distance >= {eps} from uniform (mesh {mesh})"
        )
    return Pmf(best_q), best_val
