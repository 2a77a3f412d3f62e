"""Generalized error exponents for the sparse-sample regime.

With n samples on an alphabet of size m and n = o(m), error
probabilities of good tests decay like exp(-r J) with r = n^2/m.  This
module computes the closed forms of the boundary of the achievable
(J_F, J_M) region, the rate function behind it, equalizing thresholds,
and empirical slope estimates from simulation sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ExponentPoint",
    "kappa_bar",
    "jf_star",
    "jm_star",
    "rate_function",
    "equalizing_tau",
    "region_curve",
    "estimate_exponent",
]

_EDGE_TOL = 1e-12


def kappa_bar(eps: float) -> float:
    """Worst-case value of the chi-square functional over the TV-eps shell.

    1 + 4 eps^2 for eps < 0.5 and 1 + eps/(1 - eps) for eps >= 0.5; the
    two branches meet C^1 at eps = 0.5 (both one-sided slopes equal 4).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps < 0.5:
        return 1.0 + 4.0 * eps * eps
    return 1.0 + eps / (1.0 - eps)


def jf_star(tau: float) -> float:
    """False-alarm exponent at normalized threshold tau.

    Closed form of sup_{theta>=0} theta*tau - (e^{2 theta} - 1 - 2 theta)/2,
    attained at theta = log(1 + tau)/2:

        J_F*(tau) = [-tau + (1 + tau) log(1 + tau)] / 2
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    return 0.5 * (-tau + (1.0 + tau) * math.log1p(tau))


def rate_function(tau: float, kappa: float) -> float:
    """Decay rate of the acceptance probability along alternatives whose
    chi-square functional tends to kappa.

    Closed form of sup_{theta>=0} theta*(-1 - tau) - (e^{-2 theta} - 1) kappa / 2.
    The supremum sits at theta = log(kappa / (1 + tau))/2 when
    kappa >= 1 + tau and at theta = 0 (value 0) otherwise.
    """
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if kappa < 1.0 - _EDGE_TOL:
        raise ValueError(f"kappa must be >= 1 (Cauchy-Schwarz floor), got {kappa}")
    if kappa <= 1.0 + tau:
        return 0.0
    return 0.5 * (kappa - 1.0 - tau + (1.0 + tau) * math.log((1.0 + tau) / kappa))


def jm_star(tau: float, eps: float) -> float:
    """Missed-detection exponent at normalized threshold tau and TV radius eps.

    Equals rate_function(tau, kappa_bar(eps)): the worst-case alternative
    is the bi-uniform distribution attaining kappa_bar(eps).  Requires
    0 <= tau <= kappa_bar(eps) - 1.
    """
    kb = kappa_bar(eps)
    if not -_EDGE_TOL <= tau <= kb - 1.0 + _EDGE_TOL:
        raise ValueError(f"tau must lie in [0, {kb - 1.0}], got {tau}")
    tau = min(max(tau, 0.0), kb - 1.0)
    return rate_function(tau, kb)


def equalizing_tau(eps: float) -> float:
    """Threshold at which the two exponents coincide: jf_star(t) == jm_star(t, eps).

    Setting the closed forms equal cancels the (1+tau)log(1+tau) terms
    and leaves tau* = (kappa_bar - 1)/log(kappa_bar) - 1, which always
    lies strictly inside (0, kappa_bar - 1).
    """
    kb = kappa_bar(eps)
    return (kb - 1.0) / math.log(kb) - 1.0


@dataclass(frozen=True)
class ExponentPoint:
    """One point of the achievable-region boundary."""

    tau: float
    jf: float
    jm: float
    eps: float
    kappa_bar: float


def region_curve(eps: float, npoints: int) -> list[ExponentPoint]:
    """Boundary of the achievable (J_F, J_M) region at TV radius eps.

    tau is sampled uniformly on [0, kappa_bar(eps) - 1]; jf increases
    from 0 and jm decreases to 0 along the curve.
    """
    if npoints < 2:
        raise ValueError(f"need at least 2 points, got {npoints}")
    kb = kappa_bar(eps)
    taus = np.linspace(0.0, kb - 1.0, npoints)
    return [
        ExponentPoint(float(t), jf_star(float(t)), jm_star(float(t), eps), eps, kb)
        for t in taus
    ]


def estimate_exponent(
    rows: Iterable[Sequence[float]],
) -> tuple[float, float]:
    """Least-squares slope of -log(p_hat) against r over sweep rows.

    Each row is a pair (r, p_hat) with p_hat in (0, 1]; the slope is the
    empirical generalized error exponent.  Returns (slope, intercept).
    """
    data = [(float(r), float(p)) for r, p in rows]
    if len(data) < 2:
        raise ValueError(f"need at least 2 rows to fit a slope, got {len(data)}")
    rs = np.array([r for r, _ in data])
    ps = np.array([p for _, p in data])
    if np.any(ps <= 0.0):
        raise ValueError(
            "cannot take log of a zero probability estimate; "
            "increase trials or drop the row"
        )
    if not np.all(ps <= 1.0):  # a NaN fails this too
        raise ValueError("probability estimates must lie in (0, 1]")
    if not np.all(np.isfinite(rs)) or np.unique(rs).size < 2:
        raise ValueError("need at least 2 distinct finite values of r to fit a slope")
    slope, intercept = np.polyfit(rs, -np.log(ps), 1)
    return float(slope), float(intercept)
