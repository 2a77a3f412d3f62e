"""Occupancy fingerprints and the separable test statistics built on them.

A separable statistic is sum_j f_j(count of symbol j).  Every statistic
here is symmetric under symbol permutation when its reference
distribution is uniform, so it is a function of the occupancy
fingerprint alone: the vector (Phi_0, Phi_1, ...) counting how many
symbols appear exactly l times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exponents import kappa_bar
from .pmf import Pmf

__all__ = [
    "OccupancyFingerprint",
    "occupancy",
    "FTable",
    "SeparableStatistic",
    "Coincidence",
    "Pearson",
    "PearsonTruncated",
    "ExtendedCoincidence",
    "WeightedCoincidence",
    "NeedsCountsError",
    "ThresholdRule",
    "make_threshold",
    "absolute_threshold",
    "binomial_pmf",
]


class NeedsCountsError(ValueError):
    """The statistic needs per-symbol counts, not just a fingerprint."""


@dataclass(frozen=True, eq=False)
class OccupancyFingerprint:
    """Counts of symbols by occurrence level.

    phi[l] is the number of symbols that appear exactly l times, so
    sum_l phi[l] = m and sum_l l*phi[l] = n.
    """

    n: int
    m: int
    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.array(self.phi, dtype=np.int64)
        if phi.ndim != 1 or np.any(phi < 0) or np.any(phi != np.asarray(self.phi)):
            raise ValueError("phi must be a vector of non-negative counts")
        if int(phi.sum()) != self.m:
            raise ValueError(f"sum of phi is {int(phi.sum())}, expected m={self.m}")
        weighted = int(np.dot(np.arange(phi.size), phi))
        if weighted != self.n:
            raise ValueError(f"sum of l*phi_l is {weighted}, expected n={self.n}")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    def level(self, l: int) -> int:
        """Phi_l, the number of symbols appearing exactly l times."""
        return int(self.phi[l]) if 0 <= l < self.phi.size else 0


def _as_counts(counts) -> np.ndarray:
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a non-empty vector")
    as_int = arr.astype(np.int64)
    if not np.all(as_int == arr):
        raise ValueError("counts must be integers")
    if np.any(as_int < 0):
        raise ValueError("counts must be non-negative")
    return as_int


def occupancy(counts) -> OccupancyFingerprint:
    """Fingerprint of a per-symbol occurrence vector."""
    as_int = _as_counts(counts)
    return OccupancyFingerprint(
        n=int(as_int.sum()), m=int(as_int.size), phi=np.bincount(as_int)
    )


@dataclass(frozen=True, eq=False)
class FTable:
    """A separable statistic's per-symbol table at one (n, m).

    Row g of `f` holds the integer-scaled core f(c) for c = 0..K of every
    symbol j with group[j] == g; `group` None means one row shared by all
    symbols.  f is constant beyond K, and the statistic's value on the
    per-symbol counts c_j is sum_j f[group[j], min(c_j, K)] / scale + shift.
    """

    f: np.ndarray
    scale: int
    shift: float
    group: np.ndarray | None = None

    @property
    def K(self) -> int:
        return self.f.shape[1] - 1

    def shared_row(self, what: str) -> np.ndarray:
        """The row every symbol shares; a reference-dependent table has none."""
        if self.group is not None:
            raise NeedsCountsError(
                f"{what} assumes a uniform reference; evaluate from the raw count vector instead"
            )
        return self.f[0]

    def values(self, counts: np.ndarray) -> np.ndarray:
        """Statistic values of the count vectors along the last axis."""
        core = self.f[0 if self.group is None else self.group, np.minimum(counts, self.K)]
        return core.sum(axis=-1) / self.scale + self.shift

    def fingerprint_values(self, phi: np.ndarray) -> np.ndarray:
        """Statistic values sum_c Phi_c f(c) of a shared table on the
        fingerprints along the last axis, whose last entry may count every
        symbol seen that often or more.  einsum keeps the sum off BLAS and
        its threads."""
        f = self.f[0].take(np.arange(phi.shape[-1]), mode="clip")
        core = np.einsum("...j,j->...", phi, f)
        return core / self.scale + self.shift

    def groups(self, p: Pmf) -> list[tuple[int, float, int]]:
        """(k, p_j, row) for each distinct pair of a `p.groups` level and a
        table row, k its number of symbols, in order of first appearance:
        on a shared table, each level with its size."""
        levels, sizes = p.groups
        if self.group is None:
            return list(zip(sizes.tolist(), levels.tolist(), [0] * levels.size))
        rows = self.f.shape[0]
        key, first, k = np.unique(p.index * rows + self.group, return_index=True, return_counts=True)
        order = np.argsort(first)
        level, row = np.divmod(key[order], rows)
        return list(zip(k[order].tolist(), levels[level].tolist(), row.tolist()))

    def mean(self, groups: list[tuple[int, float, int]], n: int) -> float:
        """E sum_j f_j(B_j), B_j ~ Binomial(n, p_j), over groups (k, p_j, row)
        of k symbols each: each nonzero entry below K at its binomial mass,
        and f(K) at the mass from K on."""
        total = 0.0
        for k, pj, g in groups:
            row = self.f[g]
            for c in np.flatnonzero(row).tolist():
                mass = binomial_pmf(c, n, pj) if c < self.K else sum(
                    binomial_pmf(x, n, pj) for x in range(c, n + 1))
                total += row[c] * (k * mass)
        return float(total / self.scale + self.shift)


class SeparableStatistic:
    """Base class: a statistic of the form sum_j f_j(count of symbol j).

    A subclass defines its table once, in `core(n, m, q)`: it returns
    (f, scale, shift), where f holds the core f(c) for c = 0..K (constant
    beyond K) as one row, or one row per entry of the (g, 1) column q of
    m * p_j when the table depends on a reference distribution p (q is
    [[1.0]] when there is none, or it is uniform).  The statistic's value
    is sum_j f_j(c_j) / scale + shift with an integer scale, so integer
    cores give exact laws in the oracle.  `rule_kind` names the canonical
    threshold rule: "centred" (cut at the null mean plus (n^2/m) tau),
    "uncentred" (cut at (n^2/m) tau) or "pearson" (the eps consistency
    rule).  Every evaluator (fingerprints, counts, Monte Carlo kernels,
    the exact oracle, moments, thresholds) is derived from that table.
    """

    name: str = "separable"
    rule_kind: ClassVar[str] = "centred"

    def core(self, n: int, m: int, q: np.ndarray) -> tuple[np.ndarray, int, float]:
        """(f, scale, shift) of the table at (n, m); see the class docstring."""
        raise NotImplementedError

    def table(self, n: int, m: int) -> FTable:
        """The table at sample size n on m symbols; checks the reference here."""
        ref = getattr(self, "reference", None)
        if ref is not None and ref.m != m:
            raise ValueError(f"reference has {ref.m} symbols, data has {m}")
        q, group = np.ones((1, 1)), None
        if ref is not None and ref.groups[0].size > 1:  # rows in first-appearance order
            q, group = m * ref.groups[0][:, None], ref.index
        f, scale, shift = self.core(n, m, q)
        return FTable(np.atleast_2d(np.asarray(f, dtype=np.float64)), scale, shift, group)

    def from_fingerprint(self, fp: OccupancyFingerprint) -> float:
        t = self.table(fp.n, fp.m)
        t.shared_row(f"{self.name} over a fingerprint")  # a reference-dependent table raises
        return float(t.fingerprint_values(fp.phi))

    def from_counts(self, counts) -> float:
        arr = _as_counts(counts)
        return float(self.table(int(arr.sum()), arr.size).values(arr))


@dataclass(frozen=True)
class Coincidence(SeparableStatistic):
    """Negative count of singleton symbols: rejects when few symbols are unique."""

    name: str = "coincidence"

    def core(self, n, m, q):
        return np.array([0, -1, 0]), 1, 0.0


@dataclass(frozen=True)
class Pearson(SeparableStatistic):
    """Chi-square statistic, normalized so the uniform-reference form is
    sum_j count_j^2 - n^2/m.

    `reference` is the null distribution; None means uniform on whatever
    alphabet the data lives on.  Against a reference p the value is
    (n/m) sum_j (count_j - n p_j)^2 / (n p_j) = sum_j count_j^2/(m p_j) - n^2/m.
    """

    reference: Pmf | None = None
    name: str = "pearson"
    rule_kind: ClassVar[str] = "pearson"

    def core(self, n, m, q):
        if np.any(q <= 0.0):
            raise ValueError("Pearson reference must have full support")
        c = np.arange(n + 1)
        return c * c / q, 1, -(n * n) / m


@dataclass(frozen=True)
class PearsonTruncated(SeparableStatistic):
    """Pearson statistic with every level >= 3 term removed:
    Phi_1 + 4 Phi_2 - n^2/m under a uniform reference."""

    name: str = "pearson-truncated"
    rule_kind: ClassVar[str] = "pearson"

    def core(self, n, m, q):
        return np.array([0, 1, 4, 0]), 1, -(n * n) / m


@dataclass(frozen=True)
class ExtendedCoincidence(SeparableStatistic):
    """Coincidence statistic plus weighted counts of higher levels.

    `weights` lists (v_2, v_3, ..., v_lbar).  The exponent-optimality
    guarantee needs v_2 = 0 and v_l >= 0 for l >= 3; other weights are
    allowed for experiments and flagged by `weights_valid`.
    """

    weights: tuple[float, ...]
    name: str = "extended-coincidence"

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))
        if not all(math.isfinite(v) for v in self.weights):
            raise ValueError("weights must be finite")

    @property
    def weights_valid(self) -> bool:
        if not self.weights:
            return True
        return self.weights[0] == 0.0 and all(v >= 0.0 for v in self.weights[1:])

    def core(self, n, m, q):
        return np.array([0.0, -1.0, *self.weights, 0.0]), 1, 0.0


@dataclass(frozen=True)
class WeightedCoincidence(SeparableStatistic):
    """Coincidence variant whose expectation tracks the squared L2 distance
    to the reference: f_j is n^2 p_j^2 / 2 at count 0, -n p_j at count 1,
    1 at count 2, and 0 above (the core is f_j scaled by 2 m^2)."""

    reference: Pmf
    name: str = "weighted-coincidence"
    rule_kind: ClassVar[str] = "uncentred"

    def core(self, n, m, q):
        f = np.hstack([n * n * q * q, -2 * n * m * q, 2 * m * m + 0 * q, 0 * q])
        return f, 2 * m * m, 0.0


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) = k).

    math.comb(n, k) times the powers wherever C(n, k) fits a float (its
    log-gamma value is below 700), else exp of the whole log-gamma sum.
    """
    if not 0 <= k <= n:
        return 0.0
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    logc = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if logc < 700:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return math.exp(logc + k * math.log(p) + (n - k) * math.log1p(-p))


@dataclass(frozen=True)
class ThresholdRule:
    """Decision rule `reject iff statistic >= cut` for a given (n, m).

    `tau` is the dimensionless normalized threshold and `tau_n` the part
    of the cut scaled by n^2/m, so tau == m*tau_n/n^2 whenever both are
    set.  Absolute rules carry tau = tau_n = None.
    """

    statistic: SeparableStatistic
    n: int
    m: int
    cut: float
    tau: float | None = None

    @property
    def tau_n(self) -> float | None:
        return None if self.tau is None else self.n * self.n / self.m * self.tau

    def rejects(self, values) -> np.ndarray | bool:
        """Vectorized decision: True where the test rejects the null."""
        out = np.asarray(values) >= self.cut
        return bool(out) if np.isscalar(values) else out


def absolute_threshold(
    statistic: SeparableStatistic, n: int, m: int, cut: float
) -> ThresholdRule:
    """Rule rejecting iff the statistic is >= an absolute, finite cut value."""
    if not math.isfinite(cut):
        raise ValueError(f"cut must be finite, got {cut}")
    return ThresholdRule(statistic, n, m, float(cut))


def make_threshold(
    statistic: SeparableStatistic,
    n: int,
    m: int,
    tau: float | None = None,
    eps: float | None = None,
) -> ThresholdRule:
    """Build the canonical decision rule for a statistic at (n, m).

    The statistic's `rule_kind` picks the rule.  "centred" (coincidence,
    extended coincidence): reject iff S >= E_null[S] + (n^2/m) tau, with
    E_null[S] the table's exact binomial mean (`FTable.mean`) over the m
    symbols of the uniform null.
    "uncentred" (weighted coincidence): reject iff S >= (n^2/m) tau.
    "pearson" (Pearson, truncated Pearson): reject iff
    S >= n + (n^2/m)(kappa_bar(eps) - 1)/2, which needs eps and takes no tau.

    For the tau rules, tau above kappa_bar(eps) - 1 is clamped (with a
    warning) when eps is supplied; a negative or non-finite tau is an error.
    """
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    scale = n * n / m

    if statistic.rule_kind == "pearson":
        if tau is not None:
            raise ValueError(f"the {statistic.name} rule is set by eps alone and takes no tau")
        if eps is None:
            raise ValueError(f"the {statistic.name} rule needs eps")
        tau_eff = 0.5 * (kappa_bar(eps) - 1.0)
        return ThresholdRule(statistic, n, m, cut=n + scale * tau_eff, tau=tau_eff)

    if tau is None:
        raise ValueError(f"{statistic.name} needs a normalized threshold tau")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if eps is not None:
        hi = kappa_bar(eps) - 1.0
        if tau > hi:
            warnings.warn(
                f"tau={tau} exceeds kappa_bar(eps)-1={hi}; clamping", stacklevel=2
            )
            tau = hi

    base = 0.0
    if statistic.rule_kind == "centred":
        t = statistic.table(n, m)
        t.shared_row(f"the centred rule for {statistic.name}")
        base = t.mean([(m, 1.0 / m, 0)], n)  # all m symbols, probability 1/m, row 0
    return ThresholdRule(statistic, n, m, cut=base + scale * tau, tau=tau)
