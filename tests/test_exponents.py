"""Unit tests for gee.exponents."""

import math

import numpy as np
import pytest
from pytest import approx

from gee.exponents import (
    equalizing_tau,
    estimate_exponent,
    jf_star,
    jm_star,
    kappa_bar,
    rate_function,
    region_curve,
)

from .oracles import bisect_root, golden_max


def jf_numeric(tau):
    """Independent evaluation of the false-alarm supremum over theta."""
    tau = np.asarray(tau, dtype=np.float64)
    return golden_max(
        lambda th: th * tau - 0.5 * (np.exp(2.0 * th) - 1.0 - 2.0 * th), 0.0, 20.0
    )


def jm_numeric(tau, eps):
    kb = kappa_bar(eps)
    tau = np.asarray(tau, dtype=np.float64)
    return golden_max(
        lambda th: th * (kb - 1.0 - tau)
        - 0.5 * (np.exp(-2.0 * th) - 1.0 + 2.0 * th) * kb,
        0.0,
        20.0,
    )


class TestKappaBar:
    def test_values(self):
        assert kappa_bar(0.35) == approx(1.49, abs=1e-15)
        assert kappa_bar(0.8) == approx(5.0, abs=1e-12)

    def test_continuous_at_half(self):
        assert kappa_bar(0.5) == approx(2.0, abs=1e-15)
        assert kappa_bar(0.5 - 1e-12) == approx(2.0, abs=1e-11)

    def test_c1_at_half(self):
        h = 1e-7
        left = (kappa_bar(0.5) - kappa_bar(0.5 - h)) / h
        right = (kappa_bar(0.5 + h) - kappa_bar(0.5)) / h
        assert left == approx(4.0, abs=1e-6)
        assert right == approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.3])
    def test_range(self, eps):
        with pytest.raises(ValueError):
            kappa_bar(eps)


class TestClosedForms:
    def test_jf_zero(self):
        assert jf_star(0.0) == 0.0

    def test_jf_at_one(self):
        assert jf_star(1.0) == approx(0.5 * (2.0 * math.log(2.0) - 1.0), abs=1e-15)
        assert jf_star(1.0) == approx(0.1931472, abs=1e-7)

    def test_jf_negative_rejected(self):
        with pytest.raises(ValueError):
            jf_star(-0.1)

    def test_jm_endpoint_zero(self):
        for eps in (0.1, 0.35, 0.45, 0.6, 0.8):
            assert jm_star(kappa_bar(eps) - 1.0, eps) == approx(0.0, abs=1e-15)

    def test_jm_at_origin(self):
        assert jm_star(0.0, 0.35) == approx(0.045612, abs=1e-6)
        assert jm_star(0.0, 0.35) == approx(jm_numeric(0.0, 0.35), abs=1e-9)

    def test_jm_range_check(self):
        with pytest.raises(ValueError):
            jm_star(0.5, 0.35)  # above kappa_bar - 1 = 0.49
        with pytest.raises(ValueError):
            jm_star(-0.01, 0.35)

    def test_rate_function_matches_jm(self):
        for eps in (0.1, 0.35, 0.45, 0.6, 0.8):
            kb = kappa_bar(eps)
            for tau in np.linspace(0.0, kb - 1.0, 23):
                assert rate_function(float(tau), kb) == approx(
                    jm_star(float(tau), eps), abs=1e-12
                )

    @pytest.mark.parametrize("fn", [
        jf_star, lambda t: jm_star(t, 0.35), lambda t: rate_function(t, 1.49),
    ], ids=["jf_star", "jm_star", "rate_function"])
    def test_nan_tau_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(math.nan)

    def test_infinite_tau_rejected(self):
        with pytest.raises(ValueError):
            jf_star(math.inf)

    def test_rate_function_degenerate(self):
        assert rate_function(0.2, 1.2) == 0.0  # kappa = 1 + tau
        assert rate_function(0.0, 1.0) == 0.0
        assert rate_function(0.3, 1.1) == 0.0  # kappa below 1 + tau

    def test_rate_function_kappa_floor(self):
        with pytest.raises(ValueError):
            rate_function(0.1, 0.8)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_rate_function_refuses_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError) as info:
            rate_function(0.1, kappa)
        assert "kappa must be finite and >= 1" in str(info.value)

    def test_convexity_and_monotonicity(self):
        taus = np.linspace(0.0, 0.49, 100)
        jf = np.array([jf_star(t) for t in taus])
        jm = np.array([jm_star(t, 0.35) for t in taus])
        assert np.all(np.diff(jf) > 0.0)
        assert np.all(np.diff(jm) < 0.0)
        assert np.all(np.diff(jf, 2) > -1e-12)
        assert np.all(np.diff(jm, 2) > -1e-12)


class TestEqualizer:
    @pytest.mark.parametrize(
        "eps,tau_expected,j_expected",
        [(0.35, 0.228761, 0.012180), (0.45, 0.365183, 0.029889)],
    )
    def test_matches_frozen_values(self, eps, tau_expected, j_expected):
        tau = equalizing_tau(eps)
        assert tau == approx(tau_expected, abs=1e-5)
        assert jf_star(tau) == approx(j_expected, abs=1e-5)
        assert jf_star(tau) == approx(jm_star(tau, eps), abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.35, 0.45, 0.6, 0.8])
    def test_matches_bisection_on_numeric_sups(self, eps):
        kb = kappa_bar(eps)
        root = bisect_root(
            lambda t: float(jf_numeric(t) - jm_numeric(t, eps)), 1e-9, kb - 1.0 - 1e-9
        )
        assert equalizing_tau(eps) == approx(root, abs=1e-7)

    @pytest.mark.parametrize("eps", [0.05, 0.35, 0.5, 0.75, 0.95])
    def test_interior(self, eps):
        tau = equalizing_tau(eps)
        assert 0.0 < tau < kappa_bar(eps) - 1.0


class TestRegionCurve:
    def test_endpoints(self):
        pts = region_curve(0.35, 3)
        assert [p.tau for p in pts] == approx([0.0, 0.245, 0.49])
        assert pts[0].jf == 0.0
        assert pts[0].jm == approx(0.045612, abs=1e-6)
        assert pts[-1].jm == approx(0.0, abs=1e-15)
        assert pts[-1].jf == approx(jf_star(0.49), abs=1e-15)

    def test_monotone(self):
        pts = region_curve(0.45, 50)
        jfs = [p.jf for p in pts]
        jms = [p.jm for p in pts]
        assert all(a <= b for a, b in zip(jfs, jfs[1:]))
        assert all(a >= b for a, b in zip(jms, jms[1:]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            region_curve(0.35, 1)


class TestEstimateExponent:
    def test_exact_linear_fit(self):
        rows = [(r, math.exp(-0.03 * r)) for r in (5.0, 10.0, 20.0, 40.0)]
        slope, intercept = estimate_exponent(rows)
        assert slope == approx(0.03, abs=1e-12)
        assert intercept == approx(0.0, abs=1e-10)

    def test_two_point(self):
        slope, intercept = estimate_exponent([(10.0, math.exp(-1)), (20.0, math.exp(-2))])
        assert slope == approx(0.1, abs=1e-12)
        assert intercept == approx(0.0, abs=1e-10)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            estimate_exponent([(10.0, 0.5)])

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            estimate_exponent([(10.0, 0.5), (20.0, 0.0)])

    @pytest.mark.parametrize("rows,error,fragment", [
        ([(10.0, 1.5), (20.0, 0.5)], ValueError, "probability estimates must lie in (0, 1]"),
        ([(10.0, 0.5), (20.0, 1.0 + 1e-12)], ValueError, "probability estimates must lie in (0, 1]"),
        ([(1.0, 0.5), (2.0, math.nan)], ValueError, "probability estimates must lie in (0, 1]"),
        ([(1.0, 0.5), (1.0, 0.4)], ValueError, "2 distinct finite values of r"),
        ([(math.inf, 0.5), (1.0, 0.4)], ValueError, "2 distinct finite values of r"),
        ([(math.nan, 0.5), (1.0, 0.4)], ValueError, "2 distinct finite values of r"),
    ])
    def test_refusals(self, rows, error, fragment):
        with pytest.raises(error) as info:
            estimate_exponent(rows)
        assert fragment in str(info.value)
