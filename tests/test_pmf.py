"""Unit tests for gee.pmf."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from gee.pmf import (
    AlphabetSizeError,
    DegenerateAlternativeError,
    Pmf,
    SupportError,
    biuniform_worst_case,
    check_fdiv_conditions,
    chi_square_functional,
    f_chi2,
    f_divergence,
    f_kl,
    f_tv,
    likelihood_ratio_bound,
    permuted_worst_case,
    tv_distance,
    uniform,
)

from gee.montecarlo import _sampler_path
from gee.statistics import Coincidence, Pearson

from .oracles import array_biuniform, array_uniform, tv_sup_subsets


class TestPmfType:
    def test_sum_and_nonneg_enforced(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Pmf(np.array([1.1, -0.1]))

    @pytest.mark.parametrize("probs", [
        [np.nan, 1.0], [np.inf, 0.5], [-np.inf, 1.0, 1.0], [np.inf, -np.inf, 0.5],
        [0.5, -1e-300, 0.5],
    ])
    def test_non_finite_and_negative_entries_rejected(self, probs):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Pmf(np.array(probs))

    def test_small_drift_rescaled(self):
        p = Pmf(np.array([0.5, 0.5 + 5e-10]))
        assert p.probs.sum() == approx(1.0, abs=1e-15)

    def test_large_drift_rejected(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.5 + 1e-6]))

    def test_readonly(self):
        p = uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_support_size(self):
        assert biuniform_worst_case(5, 0.6).support_size == 2
        assert uniform(7).support_size == 7

    @staticmethod
    def unique_groups(probs):
        """(levels, index) by np.unique, levels in order of first appearance."""
        levels, first, index = np.unique(probs, return_index=True, return_inverse=True)
        order = np.argsort(first)
        return levels[order], np.argsort(order)[index]

    @pytest.mark.parametrize("p", [
        uniform(7),
        biuniform_worst_case(12, 0.3),
        biuniform_worst_case(13, 0.3),
        biuniform_worst_case(20, 0.6),
        biuniform_worst_case(715542, 0.45),
        permuted_worst_case(12, 0.3, {2, 3, 4, 5, 6, 7}),
        Pmf([0.2, 0.3, 0.5]),
        Pmf([0.5, 0.3, 0.2]),
        Pmf([0.4, 0.4, 0.1, 0.1]),
        Pmf([0.4, 0.1, 0.4, 0.1]),
        Pmf([0.25, 0.25, 0.5]),
        Pmf([1.0, 0.0]),
        Pmf([0.0, 0.5, 0.0, 0.5]),
    ])
    def test_groups(self, p):
        (levels, sizes), index = p.groups, p.index
        expected = self.unique_groups(p.probs)
        assert levels.tolist() == expected[0].tolist() and index.tolist() == expected[1].tolist()
        assert sizes.tolist() == np.bincount(expected[1]).tolist()
        assert index.dtype == np.intp
        assert np.array_equal(levels[index], p.probs)
        assert not any(x.flags.writeable for x in (levels, sizes, index))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_groups_of_random_pmfs(self, count, rng):
        for _ in range(50):
            m = int(rng.integers(count, 40))
            weights = rng.integers(1, 6, size=count).astype(float)
            while np.unique(weights).size < count:
                weights = rng.integers(1, 6, size=count).astype(float)
            index = rng.permutation(np.arange(m) % count)
            p = Pmf(weights[index] / weights[index].sum())
            (levels, _), got = p.groups, p.index
            expected = self.unique_groups(p.probs)
            assert levels.size == np.unique(p.probs).size <= count
            assert levels.tolist() == expected[0].tolist() and got.tolist() == expected[1].tolist()

    @pytest.mark.parametrize("p,ranges", [
        (uniform(7), [(0, 7)]),
        (biuniform_worst_case(13, 0.3), [(0, 6), (6, 13)]),
        (permuted_worst_case(12, 0.3, {2, 3, 4, 5, 6, 7}), [(0, 6), (6, 12)]),
        (Pmf([0.1, 0.3, 0.1, 0.1, 0.3, 0.1]), [(0, 4), (4, 6)]),
    ])
    def test_level_ranges(self, p, ranges):
        # relabelled in level order, each level of `groups` is one range of
        # labels, as wide as the level's symbol count (the fingerprint path's
        # chain sizes)
        levels, sizes = p.groups
        ends = np.cumsum(sizes).tolist()
        assert list(zip([0, *ends[:-1]], ends)) == ranges
        relabelled = p.probs[np.argsort(p.index, kind="stable")]
        for level, (lo, hi) in zip(levels, ranges):
            assert np.all(relabelled[lo:hi] == level)

    def test_callers_array_is_copied(self):
        own = np.array([0.25, 0.75])
        p = Pmf(own)
        own[0] = 0.5
        base = np.array([0.5, 0.5, 0.0])
        view = base[:2]
        view.flags.writeable = False
        q = Pmf(view)
        base[0] = 0.0
        assert p.probs.tolist() == [0.25, 0.75] and q.probs.tolist() == [0.5, 0.5]

    def test_constructors_keep_their_array_read_only(self):
        for p in (uniform(4), biuniform_worst_case(4, 0.25), biuniform_worst_case(4, 0.6),
                  permuted_worst_case(4, 0.25, [1, 3])):
            assert not p.probs.flags.writeable
            with pytest.raises(ValueError):
                p.probs[0] = 1.0


CENSUS_MS = (2, 3, 768, 5001, 715542)
CENSUS_EPS = (0.05, 0.3, 0.45, 0.5, 0.7)


class TestCensusSources:
    """`uniform` and `biuniform_worst_case` build from their level census;
    each must equal the source built from its per-symbol array."""

    @staticmethod
    def assert_census_equals_array(p, array):
        q = Pmf(array)
        # read before any per-symbol array exists: none of these builds one
        assert p.m == q.m == array.size
        assert p.support_size == q.support_size == np.count_nonzero(array)
        referenced = Pearson(reference=Pmf(array_biuniform(q.m, 0.3)))  # a table per level
        for n in (50, 200, 1000, 8000, 4 * q.m):
            tables = [Coincidence().table(n, q.m)] + [referenced.table(n, q.m)] * (n <= 8000)
            assert _sampler_path(p, n, tables[:1]) == _sampler_path(q, n, tables[:1])
            assert _sampler_path(p, n, tables) == _sampler_path(q, n, tables)
        assert "probs" not in vars(p) and "index" not in vars(p)
        assert p.probs.tobytes() == q.probs.tobytes() and not p.probs.flags.writeable
        for got, expected in zip((*p.groups, p.index), (*q.groups, q.index)):
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
            assert not got.flags.writeable
        assert repr(p) == repr(q)
        table, expected = p.inverse_cdf, q.inverse_cdf
        assert table.bits == expected.bits
        for got, want in ((table.keys, expected.keys), (table.values, expected.values), (table.guide, expected.guide)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("m", CENSUS_MS)
    def test_uniform(self, m):
        self.assert_census_equals_array(uniform(m), array_uniform(m))

    @pytest.mark.parametrize("eps", CENSUS_EPS)
    @pytest.mark.parametrize("m", CENSUS_MS)
    def test_biuniform(self, m, eps):
        if math.floor(m * (1.0 - eps) + 1e-9) == 0:
            with pytest.raises(DegenerateAlternativeError):
                biuniform_worst_case(m, eps)
            return
        self.assert_census_equals_array(biuniform_worst_case(m, eps), array_biuniform(m, eps))

    def test_eps_below_the_resolution_of_one_level(self):
        # 1/m +- eps/(m/2) rounds to 1/m: one level, as the array's scan finds
        self.assert_census_equals_array(biuniform_worst_case(4, 1e-17), array_biuniform(4, 1e-17))

    def test_immutable(self):
        p = uniform(3)
        with pytest.raises(AttributeError):
            p.probs = np.array([0.5, 0.25, 0.25])


class TestConstructors:
    def test_uniform(self):
        assert uniform(2).probs == approx([0.5, 0.5])
        assert uniform(4).probs == approx([0.25] * 4)

    def test_uniform_m1_rejected(self):
        with pytest.raises(AlphabetSizeError):
            uniform(1)

    def test_biuniform_small_eps(self):
        q = biuniform_worst_case(4, 0.25)
        assert q.probs == approx([0.375, 0.375, 0.125, 0.125], abs=1e-15)

    def test_biuniform_large_eps(self):
        q = biuniform_worst_case(5, 0.6)
        assert q.probs == approx([0.5, 0.5, 0.0, 0.0, 0.0], abs=1e-15)

    def test_biuniform_tv_radius(self):
        q = biuniform_worst_case(4, 0.25)
        assert tv_distance(q, uniform(4)) == approx(0.25, abs=1e-15)

    def test_biuniform_degenerate(self):
        with pytest.raises(DegenerateAlternativeError):
            biuniform_worst_case(2, 0.9)

    def test_permuted(self):
        q = permuted_worst_case(4, 0.25, {3, 4})
        assert q.probs == approx([0.125, 0.125, 0.375, 0.375], abs=1e-15)

    def test_permuted_identity_subset(self):
        q = permuted_worst_case(4, 0.25, {1, 2})
        assert q.probs == approx(biuniform_worst_case(4, 0.25).probs)

    def test_permuted_wrong_size(self):
        with pytest.raises(ValueError):
            permuted_worst_case(4, 0.25, {1})

    @given(
        m=st.integers(min_value=2, max_value=40),
        eps=st.floats(min_value=1e-6, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_biuniform_always_valid(self, m, eps):
        try:
            q = biuniform_worst_case(m, eps)
        except DegenerateAlternativeError:
            assert int(m * (1.0 - eps) + 1e-9) == 0
            return
        assert np.all(q.probs >= 0.0)
        assert q.probs.sum() == approx(1.0, abs=1e-12)
        assert tv_distance(q, uniform(m)) >= eps - 1e-12

    def test_permuted_is_permutation_of_biuniform(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 12))
            eps = float(rng.uniform(0.05, 0.45))
            subset = rng.choice(m, size=m // 2, replace=False) + 1
            a = np.sort(permuted_worst_case(m, eps, subset).probs)
            b = np.sort(biuniform_worst_case(m, eps).probs)
            assert a == approx(b, abs=1e-15)


class TestDistances:
    def test_tv_identity(self):
        p = uniform(5)
        assert tv_distance(p, p) == 0.0

    def test_tv_disjoint(self):
        assert tv_distance(Pmf([1.0, 0.0]), Pmf([0.0, 1.0])) == approx(1.0)

    def test_tv_matches_subset_supremum(self):
        q = biuniform_worst_case(4, 0.25)
        p = uniform(4)
        assert tv_distance(q, p) == approx(tv_sup_subsets(q.probs, p.probs), abs=1e-14)
        assert tv_distance(q, p) == approx(0.25)

    def test_tv_size_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(uniform(3), uniform(4))

    def test_chi_square_at_null(self):
        p = uniform(6)
        assert chi_square_functional(p, p) == approx(1.0, abs=1e-12)

    def test_chi_square_biuniform_even_m(self):
        # closed form 1 + 4 eps^2 is exact for even m below eps = 0.5
        for m in (4, 6, 10):
            for eps in (0.2, 0.25, 0.3):
                q = biuniform_worst_case(m, eps)
                assert chi_square_functional(q, uniform(m)) == approx(
                    1.0 + 4.0 * eps * eps, abs=1e-12
                )

    def test_chi_square_restricted_support(self):
        q = biuniform_worst_case(5, 0.6)
        assert chi_square_functional(q, uniform(5)) == approx(2.5, abs=1e-12)

    def test_chi_square_support_violation(self):
        with pytest.raises(SupportError):
            chi_square_functional(Pmf([0.5, 0.5]), Pmf([1.0, 0.0]))

    def test_chi_square_floor(self, rng):
        # Cauchy-Schwarz: always >= 1 on common support
        for _ in range(10_000):
            m = int(rng.integers(2, 8))
            q = Pmf(rng.dirichlet(np.ones(m)) + 1e-12)
            p = Pmf(rng.dirichlet(np.ones(m)) + 1e-12)
            assert chi_square_functional(q, p) >= 1.0 - 1e-12

    def test_likelihood_ratio_bound(self):
        p = uniform(4)
        assert likelihood_ratio_bound(p, p) == approx(1.0)
        q = biuniform_worst_case(4, 0.25)
        assert likelihood_ratio_bound(q, p) == approx(1.5)
        assert likelihood_ratio_bound(Pmf([1.0, 0.0]), uniform(2)) == approx(2.0)


class TestFDivergence:
    def test_zero_at_null(self):
        p = uniform(4)
        for f in (f_kl, f_chi2, f_tv):
            assert f_divergence(p, p, f) == approx(0.0, abs=1e-14)

    def test_chi2_matches_functional_minus_one(self):
        q = biuniform_worst_case(4, 0.25)
        p = uniform(4)
        assert f_divergence(q, p, f_chi2) == approx(
            chi_square_functional(q, p) - 1.0, abs=1e-13
        )
        assert f_divergence(q, p, f_chi2) == approx(0.25, abs=1e-13)

    def test_xlogx_value(self):
        # sum p * (q/p) log(q/p) at the m=4 worst case, frozen from
        # high-precision evaluation: (1.5 ln 1.5 + 0.5 ln 0.5)/2
        q = Pmf([0.375, 0.375, 0.125, 0.125])
        p = uniform(4)

        def xlogx(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)

        assert f_divergence(q, p, xlogx) == approx(0.130812035941, abs=1e-9)
        # the -(x-1) correction in f_kl integrates to zero
        assert f_divergence(q, p, f_kl) == approx(0.130812035941, abs=1e-9)

    def test_tv_like_matches_tv(self):
        q = biuniform_worst_case(6, 0.3)
        p = uniform(6)
        assert f_divergence(q, p, f_tv) == approx(tv_distance(q, p), abs=1e-14)

    def test_support_violation(self):
        with pytest.raises(SupportError):
            f_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0]), f_kl)

    def test_f1_not_zero_rejected(self):
        with pytest.raises(ValueError):
            f_divergence(uniform(2), uniform(2), lambda x: np.asarray(x))

    def test_nan_reported(self):
        def bad(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x == 1.0, 0.0, np.nan)

        with pytest.raises(ValueError):
            f_divergence(biuniform_worst_case(4, 0.2), uniform(4), bad)

    def test_scalar_only_f(self):
        # an f written for one float, returning one float, is evaluated
        # symbol by symbol
        def chi2(x):
            return float((x - 1.0) ** 2)

        q, p = biuniform_worst_case(6, 0.3), uniform(6)
        assert f_divergence(q, p, chi2) == approx(f_divergence(q, p, f_chi2), rel=1e-14)
        # one float for the whole array has the wrong shape: also symbol by symbol
        assert f_divergence(q, p, lambda x: 0.0) == 0.0


class TestFDivConditions:
    def test_chi2(self):
        report = check_fdiv_conditions(f_chi2)
        assert report.gap_holds and report.quad_holds
        assert report.quad_alpha == approx(1.0, abs=1e-12)

    def test_kl(self):
        report = check_fdiv_conditions(f_kl)
        assert report.gap_holds and report.quad_holds
        # (x log x - x + 1)/(x-1)^2 peaks at x -> 0 with value 1
        assert report.quad_alpha == approx(1.0, abs=1e-9)
        assert report.quad_alpha <= 1.0 + 1e-9

    def test_linear_fails_gap(self):
        report = check_fdiv_conditions(lambda x: np.asarray(x) - 1.0)
        assert not report.gap_holds
        assert report.gap_witness is None

    def test_tv_alpha_diverges_under_refinement(self):
        # the grid certificate is honest: refining near x=1 blows alpha up
        coarse = check_fdiv_conditions(f_tv, quad_grid=np.linspace(0, 4, 101))
        fine = check_fdiv_conditions(f_tv, quad_grid=np.linspace(0, 4, 100001))
        assert fine.quad_alpha > 10.0 * coarse.quad_alpha


@pytest.mark.parametrize("call,error,fragment", [
    (lambda: Pmf(np.array([1.0])), AlphabetSizeError, "alphabet needs at least 2 symbols"),
    (lambda: biuniform_worst_case(1, 0.3), AlphabetSizeError, "alphabet size must be >= 2, got 1"),
    (lambda: biuniform_worst_case(4, 0.0), ValueError, "eps must lie in (0, 1), got 0.0"),
    (lambda: permuted_worst_case(1, 0.3, []), AlphabetSizeError,
     "alphabet size must be >= 2, got 1"),
    (lambda: permuted_worst_case(4, 0.5, [1, 2]), ValueError, "eps must lie in (0, 0.5), got 0.5"),
    (lambda: permuted_worst_case(4, 0.3, [1, 5]), ValueError, "subset symbols must lie in 1..4"),
    (lambda: check_fdiv_conditions(f_kl, gap_grid=[0.0, 0.5]), ValueError,
     "gap_grid must lie strictly inside (0, 1)"),
    (lambda: check_fdiv_conditions(f_kl, quad_grid=[-1.0, 2.0]), ValueError,
     "quad_grid must be non-negative"),
    (lambda: check_fdiv_conditions(lambda x: np.where(x < 1.0, np.nan, 0.0)), ValueError,
     "f evaluated to NaN on the gap grid"),
    (lambda: check_fdiv_conditions(lambda x: np.where(x > 2.0, np.nan, (x - 1.0) ** 2)),
     ValueError, "f evaluated to NaN on the quadratic grid"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
