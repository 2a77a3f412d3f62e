"""Unit tests for gee.oracle against full-enumeration references."""

import math

import numpy as np
import pytest
from pytest import approx

from gee.oracle import (
    _deviation_bounds,
    _partitions,
    OracleBudgetError,
    ScalingError,
    asymptotic_moments,
    exact_distribution,
    exact_error_probs,
    exact_expectation,
    worst_case_bruteforce,
)
from gee.pmf import Pmf, biuniform_worst_case, uniform
from gee.statistics import (
    Coincidence,
    ExtendedCoincidence,
    Pearson,
    PearsonTruncated,
    WeightedCoincidence,
    absolute_threshold,
    make_threshold,
)

from .oracles import deviation_bounds, enumerate_law, sorted_compositions


def all_statistics(m: int):
    return [
        Coincidence(),
        Pearson(),
        PearsonTruncated(),
        ExtendedCoincidence(weights=(0.0, 2.0)),
        WeightedCoincidence(uniform(m)),
    ]


def assert_law_matches(dist, law, tol=1e-12):
    expected = sorted(law.items())
    assert len(dist.support) == len(expected)
    for (v, p), sv, sp in zip(expected, dist.support, dist.probs):
        assert sv == approx(v, abs=1e-9)
        assert sp == approx(p, abs=tol)


class TestExactDistribution:
    def test_coincidence_two_symbols(self):
        dist = exact_distribution(Coincidence(), uniform(2), 2)
        assert_law_matches(dist, {-2.0: 0.5, 0.0: 0.5})

    def test_coincidence_three_symbols(self):
        dist = exact_distribution(Coincidence(), uniform(3), 3)
        assert_law_matches(dist, {-3.0: 6 / 27, -1.0: 18 / 27, 0.0: 3 / 27})

    def test_weighted_two_symbols(self):
        dist = exact_distribution(WeightedCoincidence(uniform(2)), uniform(2), 2)
        assert_law_matches(dist, {-2.0: 0.5, 1.5: 0.5})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_enumeration_under_null(self, n, m):
        p = uniform(m)
        for stat in all_statistics(m):
            law = enumerate_law(stat.from_counts, p.probs, n)
            assert_law_matches(exact_distribution(stat, p, n), law)

    def test_matches_enumeration_under_alternative(self):
        q = biuniform_worst_case(4, 0.3)
        for stat in all_statistics(4):
            law = enumerate_law(stat.from_counts, q.probs, 4)
            assert_law_matches(exact_distribution(stat, q, 4), law)

    def test_restricted_support_alternative(self):
        q = biuniform_worst_case(5, 0.6)  # zeros in the tail
        law = enumerate_law(Coincidence().from_counts, q.probs, 3)
        assert_law_matches(exact_distribution(Coincidence(), q, 3), law)

    def test_probabilities_sum_to_one(self):
        dist = exact_distribution(Pearson(), uniform(7), 9)
        assert dist.probs.sum() == approx(1.0, abs=1e-10)

    def test_raw_f_table(self):
        # all-zero table: statistic is identically zero
        dist = exact_distribution(np.zeros(6, dtype=int), uniform(3), 5)
        assert_law_matches(dist, {0.0: 1.0})

    def test_budget_error_mentions_figure(self):
        with pytest.raises(OracleBudgetError, match="1000"):
            exact_distribution(Pearson(), uniform(500), 60, budget=1000)

    def test_non_integer_weights_rejected(self):
        with pytest.raises(ScalingError):
            exact_distribution(
                ExtendedCoincidence(weights=(0.0, 0.5)), uniform(3), 3
            )

    def test_weighted_core_reduced_by_gcd(self):
        # core steps are multiples of gcd(400, 2400, 7200) = 400, so the
        # value range shrinks from 124,001 to 311 and fits the default budget
        stat = WeightedCoincidence(uniform(60))
        dist = exact_distribution(stat, uniform(60), 20)
        assert dist.mean() == approx(exact_expectation(stat, uniform(60), 20), abs=1e-12)

    def test_weighted_nonuniform_reference_rejected(self):
        stat = WeightedCoincidence(Pmf([0.7, 0.3]))
        with pytest.raises(ScalingError):
            exact_distribution(stat, uniform(2), 2)


class TestExactErrorProbs:
    def test_degenerate_thresholds(self):
        stat = Coincidence()
        p, q = uniform(3), biuniform_worst_case(3, 0.3)
        high = absolute_threshold(stat, 3, 3, cut=1.0)  # above max support
        pf, pm = exact_error_probs(stat, high, p, q, 3)
        assert (pf, pm) == (0.0, 1.0)
        low = absolute_threshold(stat, 3, 3, cut=-4.0)  # below min support
        pf, pm = exact_error_probs(stat, low, p, q, 3)
        assert (pf, pm) == (1.0, 0.0)

    def test_reject_at_zero_singletons(self):
        stat = Coincidence()
        rule = absolute_threshold(stat, 3, 3, cut=0.0)
        pf, pm = exact_error_probs(
            stat, rule, uniform(3), biuniform_worst_case(3, 0.3), 3
        )
        assert pf == approx(3 / 27, abs=1e-12)
        # cross-check pm by enumeration under the alternative
        q = biuniform_worst_case(3, 0.3)
        law = enumerate_law(stat.from_counts, q.probs, 3)
        assert pm == approx(sum(p for v, p in law.items() if v < 0.0), abs=1e-12)

    def test_pearson_tie_handling(self):
        # cut exactly on a support point: reject includes the tie
        stat = Pearson()
        n, m = 4, 4
        dist = exact_distribution(stat, uniform(m), n)
        cut = float(dist.support[2])
        rule = absolute_threshold(stat, n, m, cut=cut)
        pf, _ = exact_error_probs(stat, rule, uniform(m), uniform(m), n)
        assert pf == approx(float(dist.probs[2:].sum()), abs=1e-12)

    def test_rule_shape_mismatch_rejected(self):
        stat = Coincidence()
        rule = absolute_threshold(stat, 3, 3, cut=0.0)
        with pytest.raises(ValueError):
            exact_error_probs(stat, rule, uniform(4), uniform(4), 3)


class TestExactExpectation:
    def test_coincidence_closed_form_small(self):
        assert exact_expectation(Coincidence(), uniform(2), 2) == approx(-1.0)
        assert exact_expectation(Coincidence(), uniform(3), 3) == approx(-4 / 3)

    def test_matches_distribution_mean(self):
        for m in (2, 3, 4):
            p = uniform(m)
            for stat in all_statistics(m):
                dist = exact_distribution(stat, p, 5)
                assert exact_expectation(stat, p, 5) == approx(dist.mean(), abs=1e-10)

    def test_zero_table(self):
        assert exact_expectation(np.zeros(4), uniform(2), 3) == 0.0

    def test_alternative_sampling(self):
        q = biuniform_worst_case(4, 0.25)
        law = enumerate_law(Coincidence().from_counts, q.probs, 3)
        expected = sum(v * p for v, p in law.items())
        assert exact_expectation(Coincidence(), q, 3) == approx(expected, abs=1e-12)


class TestAsymptoticMoments:
    def test_coincidence_under_uniform(self):
        n, m = 30, 900
        mean, var = asymptotic_moments(Coincidence(), uniform(m), n)
        assert mean == approx(-n + n * n / m, abs=1e-10)
        assert var == approx(2.0 * n * n / m, abs=1e-10)

    def test_weighted_at_null_mean_is_higher_order(self):
        n, m = 20, 400
        mean, var = asymptotic_moments(WeightedCoincidence(uniform(m)), uniform(m), n)
        # the n^2/m leading term cancels; only n^3/m^2-scale terms remain
        assert mean == approx(n**3 / (2 * m * m) + n**4 / (4 * m**3), rel=1e-9)
        assert var is None  # f(0) != 0 falls outside the variance lemma

    def test_pearson_mean_near_n(self):
        n, m = 25, 600
        mean, var = asymptotic_moments(Pearson(), uniform(m), n)
        assert mean == approx(n, abs=1e-9)
        assert var is None

    def test_remainder_scale_stays_bounded(self):
        # |second-order mean - exact| should stay O(n^3/m^2) along a
        # sparse-regime schedule
        ratios = []
        for n in (50, 100, 200, 400):
            m = math.ceil(n**1.5)
            approx_mean, _ = asymptotic_moments(Coincidence(), uniform(m), n)
            exact = exact_expectation(Coincidence(), uniform(m), n)
            ratios.append(abs(approx_mean - exact) / (n**3 / m**2))
        assert max(ratios) < 1.0
        assert ratios[-1] <= ratios[0] + 0.1


class TestWorstCaseBruteforce:
    def test_unconstrained_minimum_is_uniform(self):
        argmin, value = worst_case_bruteforce(3, 0.0, 30)
        assert value == approx(1.0, abs=1e-12)
        assert argmin.probs == approx(np.full(3, 1 / 3), abs=1e-12)

    def test_even_m_attains_closed_form(self):
        argmin, value = worst_case_bruteforce(4, 0.25, 200)
        assert value == approx(1.25, abs=1e-12)  # grid contains the optimum
        assert np.sort(argmin.probs)[::-1] == approx([0.375, 0.375, 0.125, 0.125])

    def test_large_eps_argmin(self):
        argmin, value = worst_case_bruteforce(5, 0.6, 100)
        target = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.max(np.abs(np.sort(argmin.probs)[::-1] - target)) <= 0.02
        assert value == approx(2.5, abs=0.05)

    def test_infeasible_grid(self):
        with pytest.raises(ValueError):
            worst_case_bruteforce(3, 0.95, 10)

    def test_m_range(self):
        with pytest.raises(ValueError):
            worst_case_bruteforce(7, 0.2, 10)

    # (m, mesh, eps) -> grid counts of the argmin and its value, as the
    # recursive enumeration this replaced returned them
    PINNED = {
        (2, 100, 0.45): ([95, 5], 1.8099999999999998),
        (3, 100, 0.45): ([79, 11, 10], 1.9386000000000003),
        (4, 100, 0.45): ([48, 47, 3, 2], 1.8104),
        (5, 100, 0.45): ([43, 42, 5, 5, 5], 1.8439999999999999),
        (6, 100, 0.45): ([32, 32, 31, 2, 2, 1], 1.8108),
        (2, 37, 0.25): ([28, 9], 1.2636961285609936),
        (3, 37, 0.25): ([17, 17, 3], 1.2863403944485028),
        (4, 37, 0.25): ([14, 14, 5, 4], 1.2651570489408328),
        (5, 37, 0.25): ([11, 11, 10, 3, 2], 1.296566837107378),
        (6, 37, 0.25): ([10, 9, 9, 3, 3, 3], 1.2666179693206723),
        # tied minima ([4, 4, 4, 2, 2] and [4, 3, 3, 3, 2, 1] come later):
        # the first grid point in descending lexicographic order wins
        (5, 16, 0.1125): ([5, 3, 3, 3, 2], 1.09375),
        (6, 16, 0.145833): ([4, 4, 2, 2, 2, 2], 1.125),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_argmin(self, key):
        m, mesh, eps = key
        counts, pinned = self.PINNED[key]
        argmin, value = worst_case_bruteforce(m, eps, mesh)
        assert np.rint(argmin.probs * mesh).astype(int).tolist() == counts
        assert value == approx(pinned, rel=1e-14)

    @pytest.mark.parametrize("total,slots,cap", [
        (0, 1, 0), (5, 1, 5), (5, 1, 4), (0, 3, 0), (7, 3, 7), (7, 3, 3),
        (7, 3, 2),  # cap below total / slots: no row
        (12, 4, 5), (10, 5, 10), (9, 2, 6),
    ])
    def test_partitions_match_enumeration(self, total, slots, cap):
        rows = _partitions(total, slots, cap)
        assert rows.shape == (len(sorted_compositions(total, slots, cap)), slots)
        assert [tuple(row) for row in rows.tolist()] == sorted_compositions(total, slots, cap)


class TestDeviationBounds:
    def test_random_tables_match_fractions(self, rng):
        for _ in range(300):
            n = int(rng.integers(0, 30))
            hi = 10 ** int(rng.integers(1, 6))
            core = rng.integers(-hi, hi, size=(int(rng.integers(1, 4)), n + 1))
            assert _deviation_bounds(core, n) == deviation_bounds(core, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
    def test_truncated_pearson_has_negative_excess(self, n):
        core = np.array([[0, 1, 4, 0][min(c, 3)] for c in range(n + 1)])[None, :]
        assert _deviation_bounds(core, n) == deviation_bounds(core, n)

    def test_wide_values_do_not_overflow(self):
        # n * (f(c) - f(0)) exceeds the int64 range
        n = 1000
        core = np.array([[0, 2**61, -(2**62), 3], [2**62, 5, 0, -(2**61)]])
        core = np.pad(core, ((0, 0), (0, n - 3)), mode="edge")
        assert _deviation_bounds(core, n) == deviation_bounds(core, n)
