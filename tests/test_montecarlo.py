"""Unit tests for gee.montecarlo."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from pytest import approx

from gee.montecarlo import (
    _block_values,
    _event_sampler,
    _make_sampler,
    _RepeatChain,
    _sampler_path,
    _tally_sampler,
    PartitionMap,
    SimPlan,
    ErrorEstimate,
    estimate_pf,
    estimate_pm,
    sample_occupancy,
    simulate_statistics,
    sweep,
)
from gee.oracle import exact_distribution, exact_error_probs
from gee.pmf import Pmf, biuniform_worst_case, permuted_worst_case, uniform
from gee.statistics import (
    Coincidence,
    ExtendedCoincidence,
    Pearson,
    PearsonTruncated,
    WeightedCoincidence,
    absolute_threshold,
    make_threshold,
    occupancy,
)

from .oracles import direct_value


def coincidence_plan(n, m, eps, tau, trials, seed, streams=1, alternative=None):
    stat = Coincidence()
    rule = make_threshold(stat, n, m, tau=tau)
    return SimPlan(
        n=n, m=m, eps=eps, statistic=stat, rule=rule,
        trials=trials, seed=seed, streams=streams, alternative=alternative,
    )


class TestSampleOccupancy:
    def test_point_mass(self):
        p = Pmf([1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            fp = sample_occupancy(p, 5, rng)
            assert fp.level(5) == 1 and fp.level(0) == 1

    def test_fixed_seed_reproducible(self):
        a = [sample_occupancy(uniform(50), 10, np.random.default_rng(42)).phi for _ in range(1)]
        b = [sample_occupancy(uniform(50), 10, np.random.default_rng(42)).phi for _ in range(1)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invariants_hold(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 30))
            m = int(rng.integers(2, 40))
            fp = sample_occupancy(uniform(m), n, rng)
            assert fp.n == n and fp.m == m

    def test_two_symbol_singleton_frequency(self):
        # P(both draws distinct) = 1/2 for n=2, m=2
        values = simulate_statistics(uniform(2), [Coincidence()], 2, 100_000, seed=3)[0]
        p_hat = float(np.mean(values == -2.0))
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(p_hat - 0.5) <= 4 * sigma


class TestEstimates:
    def test_threshold_above_max_gives_zero(self):
        plan = SimPlan(
            n=10, m=20, eps=0.3, statistic=Coincidence(),
            rule=absolute_threshold(Coincidence(), 10, 20, cut=1.0),
            trials=500, seed=1,
        )
        est = estimate_pf(plan)
        assert est.p_hat == 0.0 and est.ci95_halfwidth == 0.0

    def test_matches_exact_oracle(self):
        n, m, eps, tau, trials = 20, 50, 0.3, 0.2, 100_000
        plan = coincidence_plan(n, m, eps, tau, trials, seed=5)
        pf_exact, pm_exact = exact_error_probs(
            plan.statistic, plan.rule, uniform(m), plan.alternative, n
        )
        pf = estimate_pf(plan)
        pm = estimate_pm(plan)
        sf = math.sqrt(pf_exact * (1 - pf_exact) / trials)
        sm = math.sqrt(pm_exact * (1 - pm_exact) / trials)
        assert abs(pf.p_hat - pf_exact) <= 4 * sf
        assert abs(pm.p_hat - pm_exact) <= 4 * sm

    def test_stream_count_does_not_change_counts(self):
        plans = [coincidence_plan(12, 30, 0.3, 0.2, 20_000, seed=7, streams=s) for s in (1, 8)]
        pf_counts = {estimate_pf(p).exceed_count for p in plans}
        pm_counts = {estimate_pm(p).exceed_count for p in plans}
        assert len(pf_counts) == 1 and len(pm_counts) == 1

    def test_repeated_runs_identical(self):
        plan = coincidence_plan(12, 30, 0.3, 0.2, 20_000, seed=9)
        assert estimate_pf(plan) == estimate_pf(plan)

    def test_seed_changes_counts(self):
        a = estimate_pf(coincidence_plan(12, 30, 0.3, 0.2, 20_000, seed=1))
        b = estimate_pf(coincidence_plan(12, 30, 0.3, 0.2, 20_000, seed=2))
        assert a.exceed_count != b.exceed_count

    def test_counts_path_matches_sorted_path_law(self):
        # n >= 4m triggers the tally path; compare against the exact
        # oracle rather than another sampler
        n, m, tau, trials = 60, 12, 0.3, 50_000
        plan = coincidence_plan(n, m, 0.3, tau, trials, seed=11)
        pf_exact, _ = exact_error_probs(
            plan.statistic, plan.rule, uniform(m), plan.alternative, n
        )
        pf = estimate_pf(plan)
        assert abs(pf.p_hat - pf_exact) <= 4 * math.sqrt(pf_exact * (1 - pf_exact) / trials)

    def test_permuted_alternative_uses_alias_path(self):
        # permuted worst case is neither uniform nor banded; the alias
        # sampler must still produce the right acceptance probability
        n, m, eps, tau, trials = 12, 30, 0.3, 0.2, 50_000
        alt = permuted_worst_case(m, eps, set(range(2, 2 + m // 2)))
        plan = coincidence_plan(n, m, eps, tau, trials, seed=13, alternative=alt)
        # symmetric statistic: permuting symbols leaves the law unchanged
        _, pm_exact = exact_error_probs(
            plan.statistic, plan.rule, uniform(m), biuniform_worst_case(m, eps), n
        )
        pm = estimate_pm(plan)
        assert abs(pm.p_hat - pm_exact) <= 4 * math.sqrt(pm_exact * (1 - pm_exact) / trials)

    @pytest.mark.parametrize("rule", [
        make_threshold(Coincidence(), 50, 1000, tau=0.2),
        make_threshold(Coincidence(), 100, 999, tau=0.2),
        make_threshold(ExtendedCoincidence(weights=(0.0, 1.0)), 100, 1000, tau=0.2),
    ])
    def test_plan_rejects_mismatched_rule(self, rule):
        with pytest.raises(ValueError, match="rule was built for"):
            SimPlan(n=100, m=1000, eps=0.3, statistic=Coincidence(), rule=rule, trials=100, seed=1)

    def test_error_estimate_fields(self):
        est = ErrorEstimate.from_count(250, 1000)
        assert est.p_hat == 0.25
        assert est.ci95_halfwidth == approx(1.96 * math.sqrt(0.25 * 0.75 / 1000))
        assert ErrorEstimate.from_count(0, 10).ci95_halfwidth == 0.0
        assert ErrorEstimate.from_count(10, 10).ci95_halfwidth == 0.0


class TestKernelsMatchCounts:
    """The block evaluators of both sampler paths, row by row, against
    from_counts and the textbook formulas."""

    @staticmethod
    def statistics(m):
        ref = Pmf(np.arange(1, m + 1) / (m * (m + 1) / 2))
        return [
            Coincidence(),
            Pearson(),
            PearsonTruncated(),
            ExtendedCoincidence(weights=(0.0, 1.0, 3.0)),
            ExtendedCoincidence(weights=(0.5, -1.25, 0.0, 2.75)),
            WeightedCoincidence(uniform(m)),
            Pearson(reference=ref),
            WeightedCoincidence(ref),
        ]

    @pytest.mark.parametrize("n,m", [(1, 2), (6, 4), (30, 12), (40, 3)])
    def test_sorted_and_count_blocks(self, n, m, rng):
        hand = [[0] * n, list(range(m)) * (n // m) + [0] * (n % m)]
        xs = np.vstack([hand, rng.integers(0, m, size=(40, n))])
        xs.sort(axis=1)
        counts = np.array([np.bincount(row, minlength=m) for row in xs])
        stats = self.statistics(m)
        tables = [stat.table(n, m) for stat in stats]
        for path, data in (("sorted", xs.astype(np.uint32)), ("counts", counts)):
            for stat, values in zip(stats, _block_values(tables, path, data, m)):
                assert values.shape == (len(counts),)
                for row, value in zip(counts, values):
                    assert value == approx(stat.from_counts(row), rel=1e-12, abs=1e-9)
                    assert value == approx(direct_value(stat, row), rel=1e-12, abs=1e-9)


def event_counts(data, m):
    """Per event-path row, a count vector equal to the row's up to symbol order."""
    out = []
    for row in data.labels:
        hits = np.unique(row[row >= 0], return_counts=True)[1]
        seen = data.n - int(hits.sum())
        assert hits.size <= seen <= m
        out.append(np.concatenate([hits + 1, np.ones(seen - hits.size, int), np.zeros(m - seen, int)]))
    return np.array(out)


def chi_square(values, law):
    """Pearson's X^2 of sampled values against an exact law, with the
    support points of expected count below 5 pooled into one bin;
    returns (X^2, degrees of freedom)."""
    mids = (law.support[1:] + law.support[:-1]) / 2
    idx = np.searchsorted(mids, values)
    assert np.allclose(law.support[idx], values, rtol=0, atol=1e-9)
    observed = np.bincount(idx, minlength=law.support.size)
    expected = law.probs * values.size
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0
    x2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    return x2, int(keep.sum()) - 1


def chi_square_bound(df, z=5.0):
    """Upper chi-square quantile at a normal z (Wilson-Hilferty)."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def moments_agree(x, y):
    """True when the first two moments of two samples of equal size agree
    within 5 standard errors."""
    c = np.concatenate([x, y]).mean()
    for k in (1, 2):
        a, b = (x - c) ** k, (y - c) ** k
        if abs(a.mean() - b.mean()) > 5 * math.sqrt((a.var() + b.var()) / x.size):
            return False
    return True


class TestEventSampler:
    """The event sampler, called directly, against the exact oracle and
    the sorted reference path."""

    @pytest.mark.parametrize("source,n", [
        (uniform(30), 12),
        (uniform(6), 10),  # every symbol seen: the fresh-run table hits inf
        (biuniform_worst_case(30, 0.3), 12),
        # band mass 0.6: 2.6% of rows put all 4 draws in the low band, 13% in the high one
        (biuniform_worst_case(12, 0.1), 4),
        (biuniform_worst_case(20, 0.6), 9),  # the low band has no mass: k = n always
    ])
    def test_law_matches_oracle(self, source, n):
        m = source.m
        stats = [Coincidence(), PearsonTruncated(), Pearson()]
        data = _event_sampler(source, n)(np.random.default_rng(n * m), 40_000)
        values = _block_values([s.table(n, m) for s in stats], "event", data, m)
        for stat, x in zip(stats, values):
            x2, df = chi_square(x, exact_distribution(stat, source, n))
            assert x2 <= chi_square_bound(df), (stat.name, x2, df)

    @pytest.mark.parametrize("size,n", [(715542, 8000), (4096, 256), (6, 10), (2, 1), (10**9, 300)])
    def test_guided_search_matches_binary_search(self, size, n, rng):
        chain = _RepeatChain(size, n)
        seen = rng.integers(0, min(size, n) + 1, size=5000)
        e = np.concatenate([rng.standard_exponential(4990), [0.0, 1e-300, 50.0, 700.0, 1e6], np.zeros(5)])
        x = chain.a[seen] + e
        expected = np.searchsorted(chain.a, x, side="right")
        assert np.array_equal(chain.count_le(x), expected)
        assert np.all(expected - 1 - seen >= (seen == 0))  # the first draw is always fresh

    @pytest.mark.parametrize("source,n", [
        (uniform(5000), 300),
        (biuniform_worst_case(5000, 0.45), 300),
        (biuniform_worst_case(12, 0.1), 4),
        (uniform(6), 10),
    ])
    def test_rows_are_fingerprints(self, source, n):
        m = source.m
        data = _event_sampler(source, n)(np.random.default_rng(7), 300)
        counts = event_counts(data, m)
        stats = TestKernelsMatchCounts.statistics(m)[:6]
        values = _block_values([s.table(n, m) for s in stats], "event", data, m)
        for i, row in enumerate(counts):
            fp = occupancy(row)  # checks sum_l Phi_l = m and sum_l l Phi_l = n
            assert (fp.n, fp.m) == (n, m)
            for stat, x in zip(stats, values):
                assert x[i] == approx(direct_value(stat, row), rel=1e-12, abs=1e-9)

    def test_null_mean_closed_form(self):
        n, m, trials = 1000, 31623, 40_960
        assert _sampler_path(uniform(m), n, [Coincidence().table(n, m)]) == "event"
        phi1 = -simulate_statistics(uniform(m), [Coincidence()], n, trials, seed=31)[0]
        se = phi1.std() / math.sqrt(trials)
        assert abs(phi1.mean() - n * (1 - 1 / m) ** (n - 1)) <= 5 * se

    @pytest.mark.parametrize("source", [uniform(31623), biuniform_worst_case(31623, 0.45)])
    def test_moments_match_sorted_path(self, source, request):
        n, m, trials = 1000, 31623, 20_480
        stats = TestKernelsMatchCounts.statistics(m)[:4] + [WeightedCoincidence(uniform(m))]
        event = simulate_statistics(source, stats, n, trials, seed=41)
        request.getfixturevalue("reference_paths")
        reference = simulate_statistics(source, stats, n, trials, seed=43)
        for stat, x, y in zip(stats, event, reference):
            assert moments_agree(x, y), stat.name

    def test_path_rule(self):
        coin = [Coincidence().table(1000, 16000)]
        ref = Pmf(np.arange(1, 5001) / (5000 * 5001 / 2))
        assert _sampler_path(uniform(16000), 1000, coin) == "event"
        assert _sampler_path(biuniform_worst_case(16000, 0.3), 1000, coin) == "event"
        assert _sampler_path(uniform(15999), 1000, coin) == "sorted"
        assert _sampler_path(uniform(4096), 256, coin) == "event"
        assert _sampler_path(uniform(4096), 255, coin) == "sorted"
        assert _sampler_path(uniform(5000), 300, [Pearson(reference=ref).table(300, 5000)]) == "sorted"
        assert _sampler_path(uniform(5000), 300, ()) == "event"
        alt = permuted_worst_case(16000, 0.3, set(range(2, 8002)))
        assert _sampler_path(alt, 1000, coin) == "alias"
        assert _sampler_path(uniform(250), 1000, coin) == "tally"
        assert _sampler_path(biuniform_worst_case(250, 0.3), 1000, coin) == "tally"
        assert _sampler_path(uniform(251), 1000, coin) == "sorted"
        dense = permuted_worst_case(250, 0.3, set(range(2, 127)))
        assert _sampler_path(dense, 1000, coin) == "counts"

    def test_plan_reports_paths(self):
        plan = coincidence_plan(1000, 31623, 0.45, 0.2, 10, seed=1)
        assert plan.sampler == {"pf": "event", "pm": "event"}
        plan = coincidence_plan(12, 30, 0.45, 0.2, 10, seed=1)
        assert plan.sampler == {"pf": "sorted", "pm": "sorted"}

    def test_sample_occupancy_event_row(self):
        rng = np.random.default_rng(3)
        phi1 = np.array([sample_occupancy(uniform(5000), 300, rng).level(1) for _ in range(100)])
        se = phi1.std() / math.sqrt(phi1.size)
        assert abs(phi1.mean() - 300 * (1 - 1 / 5000) ** 299) <= 5 * se


class TestSampleOccupancyPaths:
    """sample_occupancy on every sampler path against the fingerprint of
    the count vector rebuilt from the same draw."""

    CASES = [
        ("tally", uniform(12), 60),
        ("tally", biuniform_worst_case(12, 0.3), 60),
        ("counts", permuted_worst_case(12, 0.3, set(range(2, 8))), 60),
        ("sorted", uniform(50), 30),
        ("sorted", uniform(50), 1),
        ("sorted", uniform(50), 0),
        ("sorted", biuniform_worst_case(51, 0.3), 30),
        ("sorted", biuniform_worst_case(51, 0.3), 0),
        ("alias", permuted_worst_case(50, 0.3, set(range(2, 27))), 30),
        ("alias", permuted_worst_case(50, 0.3, set(range(2, 27))), 0),
        ("event", uniform(5000), 300),
        ("event", biuniform_worst_case(5000, 0.45), 300),
    ]

    @pytest.mark.parametrize("path,source,n", CASES)
    def test_matches_rebuilt_counts(self, path, source, n):
        m = source.m
        for seed in range(5):
            fp = sample_occupancy(source, n, np.random.default_rng(seed))
            chosen, draw = _make_sampler(source, n, ())
            assert chosen == path
            data = draw(np.random.default_rng(seed), 1)
            if path in ("tally", "counts"):
                counts = data[0]
            elif path == "event":
                counts = event_counts(data, m)[0]
            else:
                counts = np.bincount(data[0], minlength=m)
            # phi runs to the largest count seen, so n = 0 gives [m]
            assert fp.phi.tolist() == occupancy(counts).phi.tolist()


class TestTallySampler:
    """The tally sampler, called directly, against the exact oracle and
    the multinomial reference path."""

    SOURCES = [
        uniform(12),
        biuniform_worst_case(12, 0.3),
        biuniform_worst_case(13, 0.3),  # bands of 6 and 7 symbols
        biuniform_worst_case(12, 0.6),  # the low band has no mass: k = n always
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_law_matches_oracle(self, source):
        n, m = 60, source.m
        assert _sampler_path(source, n, ()) == "tally"
        stats = [Coincidence(), PearsonTruncated()]
        counts = _tally_sampler(source, n)(np.random.default_rng(m), 40_000)
        values = _block_values([s.table(n, m) for s in stats], "tally", counts, m)
        for stat, x in zip(stats, values):
            x2, df = chi_square(x, exact_distribution(stat, source, n))
            assert x2 <= chi_square_bound(df), (stat.name, x2, df)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("b", [1, 63, 65])
    def test_rows_are_count_vectors(self, source, b):
        n, m = 60, source.m
        counts = _tally_sampler(source, n)(np.random.default_rng(b), b)
        assert counts.shape == (b, m) and counts.min() >= 0
        assert np.all(counts.sum(axis=1) == n)
        assert np.all(counts[:, source.probs == 0.0] == 0)
        if source.two_band is not None:
            # the first draws are the per-row band split, for the whole block
            s, w1 = source.two_band
            k = np.random.default_rng(b).binomial(n, w1, size=b)
            assert np.array_equal(counts[:, :s].sum(axis=1), k)

    @pytest.mark.parametrize("source", [uniform(500), biuniform_worst_case(500, 0.35)])
    def test_moments_match_multinomial_path(self, source, request):
        n, m, trials = 4000, 500, 10_240
        stats = TestKernelsMatchCounts.statistics(m)[:4] + [WeightedCoincidence(uniform(m))]
        tally = simulate_statistics(source, stats, n, trials, seed=51)
        request.getfixturevalue("reference_paths")
        reference = simulate_statistics(source, stats, n, trials, seed=53)
        for stat, x, y in zip(stats, tally, reference):
            assert moments_agree(x, y), stat.name

    def test_wide_alphabet_row(self):
        m = 65537  # symbols past the uint16 range
        rng = np.random.default_rng(5)
        fps = [sample_occupancy(uniform(m), 4 * m, rng) for _ in range(4)]
        assert all((fp.n, fp.m) == (4 * m, m) for fp in fps)
        phi0 = np.array([fp.level(0) for fp in fps])
        expected = m * (1 - 1 / m) ** (4 * m)
        assert np.all(np.abs(phi0 - expected) <= 5 * math.sqrt(expected))


class TestReferenceChecks:
    """Reference-dependent statistics fail the same way on every path."""

    REF6 = Pmf([0.3, 0.3, 0.1, 0.1, 0.1, 0.1])

    @pytest.mark.parametrize("stat", [Pearson(reference=REF6), WeightedCoincidence(REF6)])
    @pytest.mark.parametrize("m", [3, 8])
    def test_size_mismatch(self, stat, m):
        message = f"reference has 6 symbols, data has {m}"
        with pytest.raises(ValueError, match=message):
            stat.from_counts(np.ones(m, dtype=int))
        for n in (5, 4 * m):  # sorted-symbol path, then tally path
            with pytest.raises(ValueError, match=message):
                simulate_statistics(uniform(m), [stat], n, 5, seed=1)

    def test_pearson_support(self):
        stat = Pearson(reference=Pmf([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="full support"):
            stat.from_counts([1, 1, 0])
        for n in (2, 12):
            with pytest.raises(ValueError, match="full support"):
                simulate_statistics(uniform(3), [stat], n, 5, seed=1)


class TestPairedProperties:
    def test_threshold_monotonicity_on_shared_trials(self):
        values = simulate_statistics(uniform(30), [Coincidence()], 12, 20_000, seed=21)[0]
        base = make_threshold(Coincidence(), 12, 30, tau=0.0).cut
        taus = np.linspace(0.0, 1.0, 11)
        scale = 144 / 30
        pf = [float(np.mean(values >= base + t * scale)) for t in taus]
        pm = [float(np.mean(values < base + t * scale)) for t in taus]
        assert all(a >= b for a, b in zip(pf, pf[1:]))
        assert all(a <= b for a, b in zip(pm, pm[1:]))

    def test_extended_acceptance_dominated_pairwise(self):
        coin = Coincidence()
        ext = ExtendedCoincidence(weights=(0.0, 1.0, 2.0))
        assert ext.weights_valid
        alt = biuniform_worst_case(30, 0.3)
        coin_vals, ext_vals = simulate_statistics(alt, [coin, ext], 12, 20_000, seed=23)
        assert np.all(ext_vals >= coin_vals)
        # equal cuts: accepting under the extended statistic implies
        # accepting under the plain one, so paired pm is ordered
        cut = make_threshold(coin, 12, 30, tau=0.2).cut
        assert np.all((ext_vals < cut) <= (coin_vals < cut))


class TestSweep:
    def test_rows_ordered_and_r_grows(self):
        rows = sweep(
            eps=0.3, statistic=Coincidence(), tau=0.2,
            n_list=(20, 10, 40), m_rule=lambda n: math.ceil(n**1.5),
            trials=2000, seed=3,
        )
        assert [row.n for row in rows] == [10, 20, 40]
        rs = [row.r for row in rows]
        assert all(a < b for a, b in zip(rs, rs[1:]))
        for row in rows:
            assert row.r == approx(row.n**2 / row.m)

    def test_empty_n_list(self):
        assert sweep(0.3, Coincidence(), 0.2, (), lambda n: 2 * n, 100, 1) == []

    def test_zero_rows_flagged_not_dropped(self):
        # eps=0.8 allows tau up to 4, pushing the cut above the maximum
        # statistic value 0, so no trial can ever reject
        stat = Coincidence()
        with pytest.warns(UserWarning):
            rows = sweep(
                eps=0.8, statistic=stat, tau=4.0,
                n_list=(10,), m_rule=lambda n: 3 * n, trials=200, seed=5,
            )
        assert len(rows) == 1
        assert "pf_zero" in rows[0].flags
        assert rows[0].pf.p_hat == 0.0

    def test_pearson_sweep_uses_consistency_rule(self):
        rows = sweep(
            eps=0.35, statistic=Pearson(), tau=None,
            n_list=(20,), m_rule=lambda n: 2 * n, trials=2000, seed=6,
        )
        r = rows[0]
        assert r.pf.trials == 2000

    def test_pearson_rejects_tau(self):
        with pytest.raises(ValueError, match="eps alone"):
            sweep(0.35, Pearson(), 0.3, (20,), lambda n: 2 * n, 100, 1)

    def test_matches_exact_at_small_sizes(self):
        rows = sweep(
            eps=0.3, statistic=Coincidence(), tau=0.2,
            n_list=(10, 12), m_rule=lambda n: math.ceil(2.5 * n),
            trials=100_000, seed=8,
        )
        for row in rows:
            rule = make_threshold(Coincidence(), row.n, row.m, tau=0.2)
            pf_exact, pm_exact = exact_error_probs(
                Coincidence(), rule, uniform(row.m),
                biuniform_worst_case(row.m, 0.3), row.n,
            )
            assert abs(row.pf.p_hat - pf_exact) <= 4 * math.sqrt(
                pf_exact * (1 - pf_exact) / row.pf.trials
            )
            assert abs(row.pm.p_hat - pm_exact) <= 4 * math.sqrt(
                pm_exact * (1 - pm_exact) / row.pm.trials
            )


class TestPartitionMap:
    def test_unit_interval_cells(self):
        pmap = PartitionMap(lambda t: t, 4)
        assert pmap(0.30) == 2
        assert pmap(0.0) == 1
        assert pmap(0.25) == 2  # cells are right-open
        assert pmap(1.0) == 4  # top edge closed

    def test_domain_error(self):
        pmap = PartitionMap(lambda t: t, 4)
        with pytest.raises(ValueError):
            pmap(1.5)
        with pytest.raises(ValueError):
            pmap(-0.1)

    def test_vectorized(self):
        pmap = PartitionMap(lambda t: t, 4)
        out = pmap(np.array([0.1, 0.3, 0.6, 0.9]))
        assert out.tolist() == [1, 2, 3, 4]

    def test_null_induces_uniform_symbols(self):
        # P has cdf sqrt(y) on [0,1]; its quantile is t^2
        m, draws = 8, 100_000
        pmap = PartitionMap(lambda t: t * t, m)
        rng = np.random.default_rng(17)
        y = rng.random(draws) ** 2
        symbols = pmap(y)
        counts = np.bincount(symbols, minlength=m + 1)[1:]
        expected = draws / m
        sigma = math.sqrt(draws * (1 / m) * (1 - 1 / m))
        assert np.all(np.abs(counts - expected) <= 4 * sigma)

    def test_monotonicity_required(self):
        with pytest.raises(ValueError):
            PartitionMap(lambda t: -t, 4)
