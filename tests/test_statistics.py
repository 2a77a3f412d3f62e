"""Unit tests for gee.statistics."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from gee.exponents import equalizing_tau
from gee.oracle import exact_expectation
from gee.pmf import Pmf, biuniform_worst_case, uniform
from gee.statistics import (
    Coincidence,
    ExtendedCoincidence,
    NeedsCountsError,
    OccupancyFingerprint,
    Pearson,
    PearsonTruncated,
    WeightedCoincidence,
    absolute_threshold,
    binomial_pmf,
    make_threshold,
    occupancy,
)


class TestOccupancy:
    def test_basic(self):
        fp = occupancy([1, 1, 1, 0, 0])
        assert fp.n == 3 and fp.m == 5
        assert fp.level(0) == 2 and fp.level(1) == 3

    def test_with_pair(self):
        fp = occupancy([2, 1, 1, 0])
        assert (fp.level(0), fp.level(1), fp.level(2)) == (1, 2, 1)
        assert fp.n == 4

    def test_empty_sample(self):
        fp = occupancy([0, 0])
        assert fp.n == 0 and fp.level(0) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            occupancy([1, -1])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            occupancy([1.5, 0.5])

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            OccupancyFingerprint(n=3, m=2, phi=np.array([1, 1]))

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_identities(self, counts):
        fp = occupancy(counts)
        levels = np.arange(fp.phi.size)
        assert int(fp.phi.sum()) == fp.m
        assert int(np.dot(levels, fp.phi)) == fp.n


class TestEvaluate:
    def test_coincidence_all_distinct(self):
        counts = [1] * 6 + [0] * 4
        assert Coincidence().from_counts(counts) == -6.0

    def test_pearson_both_forms(self):
        counts = [2, 1, 1, 0]
        direct = Pearson().from_counts(counts)
        via_fp = Pearson().from_fingerprint(occupancy(counts))
        assert direct == approx(2.0, abs=1e-12)
        assert via_fp == approx(2.0, abs=1e-12)

    def test_weighted_small_case(self):
        stat = WeightedCoincidence(uniform(2))
        assert stat.from_counts([2, 0]) == approx(1.5, abs=1e-15)
        assert stat.from_fingerprint(occupancy([2, 0])) == approx(1.5, abs=1e-15)

    def test_weighted_needs_counts_for_nonuniform(self):
        stat = WeightedCoincidence(Pmf([0.7, 0.3]))
        with pytest.raises(NeedsCountsError):
            stat.from_fingerprint(occupancy([1, 1]))
        # the counts overload handles it
        assert stat.from_counts([1, 1]) == approx(-2 * 0.7 - 2 * 0.3)

    def test_pearson_nonuniform_reference(self):
        stat = Pearson(reference=Pmf([0.5, 0.25, 0.25]))
        counts = np.array([2, 1, 1])
        n, m = 4, 3
        p = np.array([0.5, 0.25, 0.25])
        expected = (n / m) * np.sum((counts - n * p) ** 2 / (n * p))
        assert stat.from_counts(counts) == approx(expected, abs=1e-12)
        with pytest.raises(NeedsCountsError):
            stat.from_fingerprint(occupancy(counts))

    @pytest.mark.parametrize("p", [biuniform_worst_case(12, 0.3), Pmf([0.1, 0.3, 0.2, 0.3, 0.1])],
                             ids=["census", "array"])
    def test_reference_table_shares_the_index(self, p):
        # a reference-dependent table's group is its reference's read-only
        # index itself: no copy of m entries per table
        group = Pearson(reference=p).table(20, p.m).group
        assert group is p.index
        assert group.dtype == np.intp and not group.flags.writeable

    def test_truncated_pearson(self):
        fp = occupancy([3, 2, 1, 1, 0])
        # phi1=2, phi2=1 -> 2 + 4 - 49/5
        assert PearsonTruncated().from_fingerprint(fp) == approx(6 - 49 / 5)

    def test_extended_weights(self):
        stat = ExtendedCoincidence(weights=(0.0, 1.0, 2.0))
        fp = occupancy([1, 2, 3, 4, 0])
        assert stat.from_fingerprint(fp) == approx(-1.0 + 0.0 + 1.0 + 2.0)

    def test_extended_validity_flag(self):
        assert ExtendedCoincidence(weights=(0.0, 1.0)).weights_valid
        assert not ExtendedCoincidence(weights=(1.0, 1.0)).weights_valid
        assert not ExtendedCoincidence(weights=(0.0, -1.0)).weights_valid
        assert ExtendedCoincidence(weights=()).weights_valid

    def test_empty_sample_evaluates(self):
        fp = occupancy([0, 0, 0])
        assert Coincidence().from_fingerprint(fp) == 0.0
        assert WeightedCoincidence(uniform(3)).from_fingerprint(fp) == 0.0

    def test_permutation_invariance(self, rng):
        stats = [
            Coincidence(),
            Pearson(),
            PearsonTruncated(),
            ExtendedCoincidence(weights=(0.0, 2.0)),
            WeightedCoincidence(uniform(6)),
        ]
        for _ in range(50):
            counts = rng.integers(0, 5, size=6)
            perm = rng.permutation(counts)
            for stat in stats:
                assert stat.from_counts(counts) == approx(
                    stat.from_counts(perm), abs=1e-12
                )


class TestStructuralIdentities:
    """Pointwise relations between the statistics, at property-test scale."""

    N_SAMPLES = 10_000

    def _random_counts(self, rng):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(2, 25))
        return rng.multinomial(n, np.full(m, 1.0 / m)), n, m

    def test_pearson_two_form_identity(self, rng):
        stat = Pearson()
        for _ in range(self.N_SAMPLES):
            counts, _, _ = self._random_counts(rng)
            assert stat.from_counts(counts) == approx(
                stat.from_fingerprint(occupancy(counts)), abs=1e-9
            )

    def test_coupling_inequality(self, rng):
        # Pearson dominates the shifted coincidence statistic pointwise
        pearson, coin = Pearson(), Coincidence()
        for _ in range(self.N_SAMPLES):
            counts, n, m = self._random_counts(rng)
            sp = pearson.from_counts(counts)
            sstar = coin.from_counts(counts)
            assert sp >= 2 * n + sstar - n * n / m - 1e-9

    def test_extended_dominates_coincidence(self, rng):
        stat = ExtendedCoincidence(weights=(0.0, 1.0, 0.5, 3.0))
        assert stat.weights_valid
        coin = Coincidence()
        for _ in range(self.N_SAMPLES):
            counts, _, _ = self._random_counts(rng)
            assert stat.from_counts(counts) >= coin.from_counts(counts) - 1e-12


class TestThresholds:
    def test_coincidence_rule(self):
        rule = make_threshold(Coincidence(), n=100, m=1000, tau=0.2288)
        expected = -100.0 * (1.0 - 1.0 / 1000.0) ** 99 + 10.0 * 0.2288
        assert rule.cut == approx(expected, abs=1e-12)
        assert rule.tau_n == approx(10.0 * 0.2288, abs=1e-12)

    def test_zero_tau_cuts_at_mean(self):
        rule = make_threshold(Coincidence(), n=50, m=200, tau=0.0)
        assert rule.cut == approx(-50 * (1.0 - 1.0 / 200) ** 49, abs=1e-15)

    def test_pearson_consistency_rule(self):
        rule = make_threshold(Pearson(), n=100, m=1000, eps=0.35)
        assert rule.cut == approx(100 + 5 * 0.49, abs=1e-12)

    def test_pearson_rejects_tau(self):
        with pytest.raises(ValueError):
            make_threshold(Pearson(), n=10, m=20, tau=0.1, eps=0.3)
        with pytest.raises(ValueError):
            make_threshold(Pearson(), n=10, m=20)

    def test_tau_roundtrip_invariant(self):
        for n, m, tau in [(100, 1000, 0.2288), (12, 30, 0.2), (7, 9, 1.3)]:
            rule = make_threshold(Coincidence(), n=n, m=m, tau=tau)
            assert m * rule.tau_n / n**2 == approx(rule.tau, abs=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            make_threshold(Coincidence(), n=10, m=20, tau=-0.1)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            make_threshold(Coincidence(), n=10, m=20, tau=tau, eps=0.35)

    @pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf])
    def test_non_finite_cut_rejected(self, cut):
        with pytest.raises(ValueError, match="finite"):
            absolute_threshold(Coincidence(), n=3, m=3, cut=cut)

    def test_clamp_warns(self):
        with pytest.warns(UserWarning):
            rule = make_threshold(Coincidence(), n=10, m=20, tau=5.0, eps=0.35)
        assert rule.tau == approx(0.49)

    def test_extended_rule_uses_exact_level_means(self):
        n, m = 20, 40
        stat = ExtendedCoincidence(weights=(0.0, 3.0))
        rule = make_threshold(stat, n=n, m=m, tau=0.0)
        expected = -n * (1.0 - 1.0 / m) ** (n - 1) + 3.0 * m * binomial_pmf(3, n, 1.0 / m)
        assert rule.cut == approx(expected, abs=1e-12)

    # the cuts before the symbol-group mean, at the sweep points m = ceil(n^1.5)
    # and tau = equalizing_tau(0.45); n = 1001 is past math.comb's range
    SWEEP_CUTS = {
        "coincidence": [-957.35433187941, -958.3334775589603, -1939.465243823297,
                        -3914.171297429913, -7878.403456485978],
        "extended-02": [-957.032316864581, -958.0114676162419, -1939.1397612602768,
                        -3913.8434372951797, -7878.0739516241165],
        "extended-013": [-957.189517106052, -958.1686673390675, -1939.2997773594968,
                         -3914.005424847429, -7878.237323080522],
    }

    @pytest.mark.parametrize("name", sorted(SWEEP_CUTS))
    def test_sweep_cuts_pinned(self, name):
        stat = {"coincidence": Coincidence(), "extended-02": ExtendedCoincidence((0.0, 2.0)),
                "extended-013": ExtendedCoincidence((0.0, 1.0, 3.0))}[name]
        tau = equalizing_tau(0.45)
        for n, cut in zip((1000, 1001, 2000, 4000, 8000), self.SWEEP_CUTS[name]):
            assert make_threshold(stat, n, math.ceil(n**1.5), tau=tau).cut == approx(cut, rel=2e-15, abs=0)

    def test_centred_rule_needs_a_shared_table(self):
        @dataclass(frozen=True)
        class ReferencedCoincidence(Coincidence):
            reference: Pmf | None = None

            def core(self, n, m, q):
                return np.hstack([0 * q, -q, 0 * q]), 1, 0.0

        stat = ReferencedCoincidence(reference=Pmf([0.5, 0.25, 0.25]))
        with pytest.raises(NeedsCountsError, match="centred rule"):
            make_threshold(stat, n=3, m=3, tau=0.1)

    def test_weighted_rule_has_no_centering(self):
        rule = make_threshold(WeightedCoincidence(uniform(30)), n=10, m=30, tau=0.5)
        assert rule.cut == approx(0.5 * 100 / 30, abs=1e-15)

    def test_absolute_rule(self):
        rule = absolute_threshold(Coincidence(), n=3, m=3, cut=0.0)
        assert rule.rejects(0.0) and not rule.rejects(-1.0)
        assert rule.tau is None and rule.tau_n is None

    def test_rejects_vectorized(self):
        rule = absolute_threshold(Coincidence(), n=3, m=3, cut=-1.0)
        out = rule.rejects(np.array([-2.0, -1.0, 0.0]))
        assert out.tolist() == [False, True, True]


class TestBinomialPmf:
    def test_matches_direct_formula(self):
        assert binomial_pmf(1, 10, 0.1) == approx(10 * 0.1 * 0.9**9, abs=1e-15)
        assert binomial_pmf(0, 5, 0.0) == 1.0
        assert binomial_pmf(5, 5, 1.0) == 1.0
        assert binomial_pmf(6, 5, 0.5) == 0.0

    def test_lgamma_path_past_float_range(self):
        # C(2000, k) is near 1e600 at k = 1000: past a float, so the log-gamma path
        n = 2000
        for k in (700, 950, 1000):
            assert math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) > 700
            exact = float(Fraction(math.comb(n, k), 2**n))
            assert binomial_pmf(k, n, 0.5) == approx(exact, rel=1e-10)

    def test_comb_path_up_to_n_1000(self, rng):
        # bit for bit the comb expression (at k = 1 also n p (1 - p)^(n - 1)):
        # C(n, k) fits a float at every k when n <= 1000
        for _ in range(5000):
            n = int(rng.integers(1, 1001))
            k, p = int(rng.integers(0, n + 1)), float(rng.random())
            expected = math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
            assert binomial_pmf(k, n, p) == expected
            assert binomial_pmf(1, n, p) == n * p * (1.0 - p) ** (n - 1)

    def test_cancelling_expectation_matches_rational_sum(self):
        # a weighted table whose terms cancel to 29.475 at n = 1500: every
        # mass it sums is a comb-path value, so the sum holds to 1e-14
        n, stat, source = 1500, WeightedCoincidence(biuniform_worst_case(2000, 0.3)), biuniform_worst_case(2000, 0.45)
        t = stat.table(n, source.m)
        total = Fraction(0)
        for k, pj, g in t.groups(source):
            q = Fraction(pj)
            law = [math.comb(n, x) * q**x * (1 - q) ** (n - x) for x in range(t.K)]
            for c in np.flatnonzero(t.f[g]).tolist():
                mass = law[c] if c < t.K else 1 - sum(law[:c])
                total += Fraction(float(t.f[g, c])) * k * mass
        exact = total / t.scale + Fraction(t.shift)
        assert exact_expectation(stat, source, n) == approx(float(exact), rel=1e-14, abs=0)

    def test_sums_to_one(self):
        total = sum(binomial_pmf(k, 2000, 0.001) for k in range(0, 60))
        assert total == approx(1.0, abs=1e-10)
        total_small = sum(binomial_pmf(k, 500, 0.01) for k in range(0, 501))
        assert total_small == approx(1.0, abs=1e-13)


@pytest.mark.parametrize("call,error,fragment", [
    (lambda: OccupancyFingerprint(n=0, m=2, phi=[[2]]), ValueError,
     "phi must be a vector of non-negative counts"),
    (lambda: OccupancyFingerprint(n=0, m=3, phi=[2]), ValueError, "sum of phi is 2, expected m=3"),
    (lambda: OccupancyFingerprint(n=2, m=2, phi=[1.2, 0.0, 1.0]), ValueError,
     "phi must be a vector of non-negative counts"),
    (lambda: occupancy([]), ValueError, "counts must be a non-empty vector"),
    (lambda: ExtendedCoincidence((0.0, math.nan)), ValueError, "weights must be finite"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
