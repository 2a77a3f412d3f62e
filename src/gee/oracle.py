"""Exact small-instance ground truth for separable statistics.

The exact law of an integer-valued separable statistic under i.i.d.
multinomial sampling is computed by a symbol-by-symbol dynamic program
over (count used, statistic value).  Per-symbol count weights are
Poisson(n p_j) probabilities, and a single division by P(Poisson(n) = n)
at the end converts the independent-Poisson law into the conditional
multinomial one.  All intermediate quantities are probabilities of
partial Poisson events, so nothing overflows or underflows at the
scales the cell budget admits.

The program runs single-threaded with a fixed symbol order, so a given
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
    """The dynamic program would exceed the configured cell budget."""


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

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.support - mu) ** 2, self.probs))

    def prob_geq(self, cut: float) -> float:
        """P(value >= cut)."""
        return float(self.probs[self.support >= cut].sum())


# ---------------------------------------------------------------------------
# per-symbol f tables


def _table(stat, m: int, n: int) -> FTable:
    """The table of a statistic object, or of a raw per-symbol table of
    shape (c,) or (m, c), read as constant beyond its last column."""
    if isinstance(stat, SeparableStatistic):
        return stat.table(n, m)
    table = np.asarray(stat, dtype=np.float64)
    if table.ndim == 1 and table.size:
        return FTable(table[None, :], 1, 0.0)
    if table.ndim != 2 or table.shape[0] != m or not table.shape[1]:
        raise ValueError(f"f table must have shape (c,) or (m, c) = ({m}, c), got {table.shape}")
    rows, group = np.unique(table, axis=0, return_inverse=True)
    return FTable(rows, 1, 0.0, group.ravel())


def _symbol_groups(t: FTable, p: Pmf) -> Counter[tuple[float, int]]:
    """Multiplicity of each (p_j, table row) pair, in order of first appearance."""
    rows = np.zeros(p.m, dtype=np.int64) if t.group is None else t.group
    return Counter(zip(p.probs.tolist(), rows.tolist()))


def _levels(t: FTable, n: int) -> np.ndarray:
    """Table rows at counts 0..n, shape (g, n+1)."""
    return t.f[:, np.minimum(np.arange(n + 1), t.K)]


# ---------------------------------------------------------------------------
# integer cores for the dynamic program


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


def _core_distribution(
    stat, p: Pmf, n: int, budget: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Exact law in core units: (core values, probs, scale, shift)."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    m = p.m
    t = _table(stat, m, n)
    levels = _levels(t, n)
    core = np.rint(levels)
    if np.max(np.abs(levels - core)) > 1e-9:
        raise ScalingError(
            f"{getattr(stat, 'name', 'f table')}: the exact law needs an "
            f"integer-valued f table (scale {t.scale})"
        )
    core = core.astype(np.int64)
    dev = core - core[:, :1]
    # value steps are multiples of the gcd, so the program runs on dev / gcd
    step = max(int(np.gcd.reduce(dev, axis=None)), 1)
    dev //= step
    lo, up = _deviation_bounds(dev, n)
    width = up - lo + 1
    cells = max(n, 1) * m * width
    if cells > budget:
        raise OracleBudgetError(
            f"dynamic program needs {cells} cells (n*m*value_range = "
            f"{max(n, 1)}*{m}*{width}), over the budget of {budget}"
        )

    groups = _symbol_groups(t, p)
    base = sum(count * int(core[g, 0]) for (_, g), count in groups.items())
    W = np.zeros((n + 1, width))
    W[0, -lo] = 1.0
    for (pj, g), count in groups.items():
        if pj == 0.0:
            continue  # never drawn; contributes f(0), already in base
        w = _poisson_weights(n * pj, n)
        for _ in range(count):
            nxt = np.zeros_like(W)
            for c in range(n + 1):
                wc = w[c]
                if wc == 0.0:
                    continue
                d = int(dev[g, c])
                src = W[: n + 1 - c]
                if d >= 0:
                    nxt[c:, d:] += src[:, : width - d] * wc
                else:
                    nxt[c:, :d] += src[:, -d:] * wc
            W = nxt

    cond = math.exp(-n + n * math.log(n) - math.lgamma(n + 1)) if n > 0 else 1.0
    vec = W[n] / cond
    vec /= vec.sum()  # strip the ~1e-15 conditioning drift; mass is 1 exactly
    mask = vec > 0.0
    values = base + step * (lo + np.flatnonzero(mask).astype(np.int64))
    return values, vec[mask], t.scale, t.shift


def exact_distribution(
    stat, p: Pmf, n: int, budget: int = DEFAULT_CELL_BUDGET
) -> ExactDistribution:
    """Exact law of a separable statistic under n i.i.d. draws from p.

    `stat` is a statistic object or a per-symbol integer f table of shape
    (c,) or (m, c), read as constant beyond its last column.
    """
    values, probs, scale, shift = _core_distribution(stat, p, n, budget)
    return ExactDistribution(values / scale + shift, probs)


def exact_error_probs(
    stat,
    rule: ThresholdRule,
    p_null: Pmf,
    p_alt: Pmf,
    n: int,
    budget: int = DEFAULT_CELL_BUDGET,
) -> tuple[float, float]:
    """Exact (P_F, P_M) of `reject iff stat >= rule.cut` at sample size n.

    Threshold comparisons happen in the statistic's integer core units,
    so fractional shifts like n^2/m never blur a tie.
    """
    if p_null.m != p_alt.m:
        raise ValueError(f"alphabet sizes differ: {p_null.m} vs {p_alt.m}")
    if rule.n != n or rule.m != p_null.m:
        raise ValueError(
            f"rule was built for (n={rule.n}, m={rule.m}), "
            f"got (n={n}, m={p_null.m})"
        )
    values0, probs0, scale, shift = _core_distribution(stat, p_null, n, budget)
    values1, probs1, _, _ = _core_distribution(stat, p_alt, n, budget)
    core_cut = (rule.cut - shift) * scale
    pf = min(1.0, float(probs0[values0 >= core_cut].sum()))
    pm = min(1.0, float(probs1[values1 < core_cut].sum()))
    return pf, pm


def exact_expectation(stat, p: Pmf, n: int) -> float:
    """Exact E[stat] via binomial marginals: E sum_j f_j(B_j), B_j ~ Bin(n, p_j).

    Valid because expectation is linear across the multinomial marginals;
    for the coincidence statistic under uniform p this reduces to
    -n (1 - 1/m)^(n-1).
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    t = _table(stat, p.m, n)
    levels = _levels(t, n)
    total = 0.0
    for (pj, g), count in _symbol_groups(t, p).items():
        binom = np.array([binomial_pmf(c, n, pj) for c in range(n + 1)])
        total += count * float(levels[g] @ binom)
    return total / t.scale + t.shift


def asymptotic_moments(
    stat, nu: Pmf, n: int
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
    t = _table(stat, m, n)
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
