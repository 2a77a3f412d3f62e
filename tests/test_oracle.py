"""Unit tests for gee.oracle against full-enumeration and shift-add references."""

import bisect
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from pytest import approx

import gee.oracle
from gee.exponents import equalizing_tau
from gee.montecarlo import SimPlan, estimate_pf, estimate_pm
from gee.oracle import (
    _deviation_bounds,
    _partition_levels,
    ExactDistribution,
    OracleBudgetError,
    ScalingError,
    asymptotic_moments,
    exact_distribution,
    exact_error_probs,
    exact_expectation,
    worst_case_bruteforce,
)
from gee.pmf import Pmf, biuniform_worst_case, permuted_worst_case, uniform
from gee.statistics import (
    Coincidence,
    ExtendedCoincidence,
    Pearson,
    PearsonTruncated,
    SeparableStatistic,
    WeightedCoincidence,
    absolute_threshold,
    make_threshold,
)

from .oracles import (
    FAST_LENGTHS,
    bruteforce_reference,
    bruteforce_walk,
    counter_groups,
    deviation_bounds,
    enumerate_law,
    full_count_len,
    full_grid_law,
    full_sum_expectation,
    run_python,
    shift_add_law,
    sorted_compositions,
    unique_groups,
)


def all_statistics(m: int):
    return [
        Coincidence(),
        Pearson(),
        PearsonTruncated(),
        ExtendedCoincidence(weights=(0.0, 2.0)),
        WeightedCoincidence(uniform(m)),
    ]


@dataclass(frozen=True)
class ZeroTable(SeparableStatistic):
    """A bare f table of K + 1 zeros: the statistic is identically zero."""

    K: int
    name: str = "zero"

    def core(self, n, m, q):
        return np.zeros(self.K + 1, dtype=int), 1, 0.0


@dataclass(frozen=True)
class CappedTable(SeparableStatistic):
    """f = 0, -1, then 2 at every count from K = 2 on: a nonzero f(K) below n."""

    name: str = "capped"

    def core(self, n, m, q):
        return np.array([0, -1, 2]), 1, 0.0


@dataclass(frozen=True)
class RepeatTable(SeparableStatistic):
    """f = 0, 0, then 1 from K = 2 on: the number of symbols drawn twice or
    more.  Its excess is 1 at every count from 2 on."""

    name: str = "repeats"

    def core(self, n, m, q):
        return np.array([0, 0, 1]), 1, 0.0


@dataclass(frozen=True)
class IntegerPearson(Pearson):
    """Pearson with its core multiplied by `mult`: the same statistic, whose
    rows stay integer under a reference with m p_j not of the form 1/k."""

    mult: int = 1

    def core(self, n, m, q):
        f, scale, shift = super().core(n, m, q)
        return f * self.mult, scale * self.mult, shift


LAW_M = 6
LAW_STATISTICS = {
    "coincidence": Coincidence(),
    "pearson": Pearson(),
    "pearson-truncated": PearsonTruncated(),  # rows 0, 1, 4, 0: negative excess
    "extended-013": ExtendedCoincidence(weights=(0.0, 1.0, 3.0)),
    "extended-02": ExtendedCoincidence(weights=(0.0, 2.0)),
    # excess 0, 0, -8, 3, 4, ...: the window reaches 4n below 0 and n above,
    # so discarded values above it alias onto those below
    "extended-neg10": ExtendedCoincidence(weights=(-10.0,)),
    "weighted": WeightedCoincidence(uniform(LAW_M)),
}
LAW_SOURCES = {
    "uniform": uniform(LAW_M),
    "biuniform-0.45": biuniform_worst_case(LAW_M, 0.45),
    "restricted-0.6": biuniform_worst_case(LAW_M, 0.6),  # half the symbols never drawn
}
# rows 2c^2 and 4c^2 (reference 1/2, 1/4, 1/4, core times 3): their slopes
# differ, so the excess axis shifts by one drawn row's slope only
REFERENCED_PEARSON = IntegerPearson(reference=Pmf([0.5, 0.25, 0.25]), mult=3)
REFERENCED_SOURCES = {
    "uniform": uniform(3),
    "biuniform-0.45": biuniform_worst_case(3, 0.45),
    "restricted-0.6": biuniform_worst_case(3, 0.6),  # one symbol, one row drawn
}
LAW_NS = [0, 1, 2, 7, 40, 100]


def assert_law_matches(dist, law, tol=1e-12):
    expected = sorted(law.items())
    assert len(dist.support) == len(expected)
    for (v, p), sv, sp in zip(expected, dist.support, dist.probs):
        assert sv == approx(v, abs=1e-9)
        assert sp == approx(p, abs=tol)


def assert_matches_shift_add(stat, p, n, tol=1e-12):
    """The law has no value outside the shift-add reference support, and
    every reference probability within tol."""
    support, probs = shift_add_law(stat, p, n)
    reference = dict(zip(support.tolist(), probs.tolist()))
    dist = exact_distribution(stat, p, n)
    law = dict(zip(dist.support.tolist(), dist.probs.tolist()))
    assert set(law) <= set(reference)
    assert max(abs(law.get(v, 0.0) - pr) for v, pr in reference.items()) <= tol


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
        dist = exact_distribution(ZeroTable(5), uniform(3), 5)
        assert_law_matches(dist, {0.0: 1.0})

    # weighted coincidence at n = 100 spans ~140k core values: the reference
    # takes ~20 s per law and the log-spectrum law a 120 x 115,200 grid
    # (~0.4 GB), so it stops at 40
    @pytest.mark.parametrize("stat,source,n", [
        (stat, source, n) for stat in sorted(LAW_STATISTICS) for source in sorted(LAW_SOURCES)
        for n in LAW_NS if (stat, n) != ("weighted", 100)
    ])
    def test_matches_shift_add_reference(self, stat, source, n):
        assert_matches_shift_add(LAW_STATISTICS[stat], LAW_SOURCES[source], n)

    @pytest.mark.parametrize("n", LAW_NS)
    @pytest.mark.parametrize("source", sorted(REFERENCED_SOURCES))
    def test_rows_with_different_slopes_match_shift_add(self, source, n):
        assert_matches_shift_add(REFERENCED_PEARSON, REFERENCED_SOURCES[source], n)

    def test_referenced_pearson_is_pearson(self):
        q = biuniform_worst_case(3, 0.45)
        law = enumerate_law(Pearson(reference=Pmf([0.5, 0.25, 0.25])).from_counts, q.probs, 4)
        assert_law_matches(exact_distribution(REFERENCED_PEARSON, q, 4), law)

    @pytest.mark.parametrize("source", [uniform(2000), biuniform_worst_case(2000, 0.45)],
                             ids=["null", "alternative"])
    def test_mass_before_normalising(self, source, monkeypatch):
        rows = []
        row_n = gee.oracle._row_n
        monkeypatch.setattr(gee.oracle, "_row_n",
                            lambda *args: rows.append(row_n(*args)) or rows[-1])
        n = 200
        exact_distribution(Coincidence(), source, n)
        mass = rows[0].sum() / math.exp(n * math.log(n) - n - math.lgamma(n + 1))
        assert len(rows) == 1 and abs(mass - 1.0) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("source", [uniform(2000), biuniform_worst_case(2000, 0.45)],
                             ids=["null", "alternative"])
    def test_accuracy_against_shift_add_at_scale(self, source):
        # every value to 5e-15 absolute, and every upper and lower tail sum
        # of at least 1e-10 to 1e-4 relative; ~8 s per reference law
        support, probs = shift_add_law(Coincidence(), source, 200)
        dist = exact_distribution(Coincidence(), source, 200)
        law = dict(zip(dist.support.tolist(), dist.probs.tolist()))
        assert set(law) <= set(support.tolist())
        got = np.array([law.get(v, 0.0) for v in support.tolist()])
        assert np.max(np.abs(got - probs)) <= 5e-15
        for reference, tails in ((np.cumsum(probs), np.cumsum(got)),
                                 (np.cumsum(probs[::-1]), np.cumsum(got[::-1]))):
            kept = reference >= 1e-10
            assert np.all(np.abs(tails[kept] - reference[kept]) <= 1e-4 * reference[kept])

    def test_repeated_calls_are_bit_identical(self):
        q = biuniform_worst_case(2000, 0.45)
        for stat in (Coincidence(), PearsonTruncated()):
            first, second = (exact_distribution(stat, q, 200) for _ in range(2))
            assert first.support.tobytes() == second.support.tobytes()
            assert first.probs.tobytes() == second.probs.tobytes()

    def test_bit_identical_across_blas_threads(self):
        # the twiddle sum runs in numpy's own loops: BLAS would split a
        # matrix-vector product's sums differently by its thread count
        script = """
            import hashlib
            from gee.oracle import exact_distribution
            from gee.pmf import biuniform_worst_case
            from gee.statistics import Coincidence
            probs = exact_distribution(Coincidence(), biuniform_worst_case(31623, 0.45), 1000).probs
            print(hashlib.sha256(probs.tobytes()).hexdigest())
        """
        digests = {run_python(script, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads) for threads in ("1", "2")}
        assert len(digests) == 1

    # coincidence at n = 100 on a 120-row grid (counts 0..119) whose width
    # holds the source's window of the excess axis: 90, 108 and 96 columns;
    # max(4, groups) grids: uniform(1000) is one group, the bi-uniform
    # source two, the five-band source five
    @pytest.mark.parametrize("source,grids,width", [
        (uniform(1000), 4, 90), (biuniform_worst_case(1000, 0.45), 4, 108),
        (Pmf(np.repeat(np.arange(1.0, 6.0), 200) / 3000.0), 5, 96),
    ], ids=["one-group", "two-groups", "five-groups"])
    def test_budget_counts_transform_cells_before_any_transform(
        self, source, grids, width, monkeypatch
    ):
        cells = grids * 120 * width
        exact_distribution(Coincidence(), source, 100, budget=cells)
        monkeypatch.setattr(gee.oracle, "_row_n", None)  # any call fails
        with pytest.raises(OracleBudgetError, match=f"{cells} transform cells \\({grids} grids"):
            exact_distribution(Coincidence(), source, 100, budget=cells - 1)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_budget_bounds_one_wide_grid(self, monkeypatch):
        # weighted coincidence at n = 100 on a restricted source: one group,
        # but on a 120 x 115,200 grid; the figure times 8 bytes must cover
        # the law's peak memory above the resident set it starts from
        stat, p = WeightedCoincidence(uniform(LAW_M)), biuniform_worst_case(LAW_M, 0.6)
        cells = 4 * 120 * 115200
        growth = int(run_python("""
            import resource
            from gee.oracle import exact_distribution
            from gee.pmf import biuniform_worst_case, uniform
            from gee.statistics import WeightedCoincidence
            stat, p = WeightedCoincidence(uniform(6)), biuniform_worst_case(6, 0.6)
            exact_distribution(stat, p, 10)
            with open("/proc/self/statm") as statm:
                start = int(statm.read().split()[1]) * resource.getpagesize()
            exact_distribution(stat, p, 100)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - start)
        """))
        assert 0 < growth <= 8 * cells
        monkeypatch.setattr(gee.oracle, "_row_n", None)  # any call fails
        with pytest.raises(OracleBudgetError, match=f"{cells} transform cells \\(4 grids of 120x115200"):
            exact_distribution(stat, p, 100, budget=cells - 1)

    def test_tail_below_round_off_reads_zero(self):
        # the transforms carry round-off of ~1e-16 of the law's peak, and
        # entries below ~1e-15 of it are clipped: Pearson's top value at
        # (20, 20), every draw on one symbol, has probability 20^-19, which
        # the shift-add reference resolves and the log-spectrum law reads as 0
        stat, p, n = Pearson(), uniform(20), 20
        support, probs = shift_add_law(stat, p, n)
        assert probs[-1] == approx(20.0**-19, rel=1e-9)
        rule = absolute_threshold(stat, n, p.m, cut=float(support[-1]))
        assert exact_error_probs(stat, rule, p, p, n)[0] == 0.0
        dist = exact_distribution(stat, p, n)
        assert dist.probs.min() > 1e-15 * dist.probs.max()

    def test_rows_with_different_slopes_shift_by_one_rows_slope(self):
        # two drawn rows, 2 c^2 and 4 c^2 in core units: shifting by the first
        # row's slope 2 leaves ratios (f(c) - f(0)) / c in 0..118 where the
        # unshifted ones span 0..120, so at n = 30 and a gcd of 2 the axis holds
        # 1771 values (1800 columns) instead of 1801 (1875)
        with pytest.raises(OracleBudgetError, match="4 grids of 72x1800"):
            exact_distribution(REFERENCED_PEARSON, Pmf([0.5, 0.25, 0.25]), 30, budget=1)

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


def assert_matches_full_grid(stat, p, n):
    """Every value of the law within 5e-15 of the full-grid law, and every
    upper and lower tail sum of at least 1e-10 within 1e-4 relative."""
    support, probs = full_grid_law(stat, p, n)
    dist = exact_distribution(stat, p, n)
    values = np.union1d(support, dist.support)
    want, got = np.zeros(values.size), np.zeros(values.size)
    want[np.searchsorted(values, support)] = probs
    got[np.searchsorted(values, dist.support)] = dist.probs
    assert np.max(np.abs(got - want)) <= 5e-15
    for reference, tails in ((np.cumsum(want), np.cumsum(got)),
                             (np.cumsum(want[::-1]), np.cumsum(got[::-1]))):
        kept = reference >= 1e-10
        assert np.all(np.abs(tails[kept] - reference[kept]) <= 1e-4 * reference[kept])


class TestWindowedGrid:
    """The law on the grid of counts and values that can reach row n,
    against the full grid of every count 0..n and every value the deviation
    bounds allow."""

    @pytest.mark.parametrize("stat,source,n", [
        (Coincidence(), uniform(31623), 1000),
        (Coincidence(), biuniform_worst_case(31623, 0.45), 1000),
        (PearsonTruncated(), biuniform_worst_case(31623, 0.45), 1000),
        (ExtendedCoincidence(weights=(0.0, 1.0, 3.0)), biuniform_worst_case(31623, 0.45), 1000),
        (Pearson(), uniform(1000), 100),
        (Pearson(), biuniform_worst_case(1000, 0.45), 100),
        (Pearson(), uniform(400), 40),
        (Pearson(), biuniform_worst_case(400, 0.45), 40),
        pytest.param(Coincidence(), biuniform_worst_case(89443, 0.45), 2000,
                     marks=pytest.mark.slow),
    ], ids=["coincidence-null-1000", "coincidence-alt-1000", "pearson-truncated-alt-1000",
            "extended-013-alt-1000", "pearson-null-100", "pearson-alt-100", "pearson-null-40",
            "pearson-alt-40", "coincidence-alt-2000"])
    def test_matches_full_grid(self, stat, source, n):
        assert_matches_full_grid(stat, source, n)

    def test_counts_that_fold_onto_one_cell_add(self):
        # at n = 200 the count axis has 160 rows, so counts c and c + 160 share
        # a row, and from count 2 on the table's excess is 1: c and c + 160 for
        # c = 2..40 share a cell, and the base must hold the sum of their weights
        assert gee.oracle._count_len(200) == 160
        assert_matches_full_grid(RepeatTable(), uniform(2000), 200)

    @pytest.mark.parametrize("n", [1, 2, 10, 45, 46, 100, 200, 1000, 3419, 8000, 20000])
    def test_count_wrap_is_below_its_bound(self, n):
        # the exact Poisson(n) mass at the counts n + j L, j != 0, that fold onto row n
        size = gee.oracle._count_len(n)
        j = np.arange(1, 60)
        counts = np.concatenate([n + j * size, n - j[j * size <= n] * size])
        logs = [-n + c * math.log(n) - math.lgamma(c + 1) for c in counts.tolist()]
        assert math.fsum(math.exp(x) for x in logs) < math.exp(-46.0)
        assert size <= full_count_len(n)

    def test_fast_lengths_match_enumeration(self):
        sizes = list(range(1, 20001)) + [10**6 + 1, 2**30 - 1, 2**30 + 1, 3**18 + 1, 10**12]
        want = [FAST_LENGTHS[bisect.bisect_left(FAST_LENGTHS, size)] for size in sizes]
        assert [gee.oracle._fast_len(size) for size in sizes] == want

    def test_count_lengths(self):
        # below n = 46 the lower wrap P(N <= 0) = e^-n alone forbids L <= n;
        # at n = 3419 the lower tail's bound moves L from 576 to 600
        lengths = {n: gee.oracle._count_len(n) for n in (0, 1, 10, 100, 200, 1000, 3419, 8000)}
        assert lengths == {0: 1, 1: 24, 10: 45, 100: 120, 200: 160, 1000: 320, 3419: 600,
                           8000: 900}


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

    def test_rule_for_another_statistic_rejected(self):
        rule = make_threshold(Pearson(), 4, 8, eps=0.3)
        with pytest.raises(ValueError, match="rule was built for pearson"):
            exact_error_probs(Coincidence(), rule, uniform(8), uniform(8), 4)

    def test_same_alternative_reuses_the_null_law(self, monkeypatch):
        import gee.oracle

        stat, p = Coincidence(), uniform(6)
        rule = absolute_threshold(stat, 5, 6, cut=-2.0)
        pf_two, _ = exact_error_probs(stat, rule, p, uniform(6), 5)
        calls = []
        core = gee.oracle._core_distribution
        monkeypatch.setattr(gee.oracle, "_core_distribution",
                            lambda *a: calls.append(a) or core(*a))
        pf_one, pm = exact_error_probs(stat, rule, p, p, 5)
        assert len(calls) == 1
        assert pf_one == pf_two and pm == approx(1.0 - pf_one, abs=1e-15)


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
        assert exact_expectation(ZeroTable(3), uniform(2), 3) == 0.0

    def test_alternative_sampling(self):
        q = biuniform_worst_case(4, 0.25)
        law = enumerate_law(Coincidence().from_counts, q.probs, 3)
        expected = sum(v * p for v, p in law.items())
        assert exact_expectation(Coincidence(), q, 3) == approx(expected, abs=1e-12)


GROUP_M = 12
THREE_LEVEL = Pmf(np.resize([3.0, 1.0, 2.0], GROUP_M) / 24.0)
PERMUTED = permuted_worst_case(GROUP_M, 0.3, [2, 3, 5, 8, 11, 12])
GROUP_SOURCES = {
    "uniform": uniform(GROUP_M),
    "contiguous": biuniform_worst_case(GROUP_M, 0.45),
    "permuted": PERMUTED,
    "three-level": THREE_LEVEL,
    "restricted-0.6": biuniform_worst_case(GROUP_M, 0.6),  # a zero level
}
GROUP_STATISTICS = {
    "shared": Coincidence(),
    "pearson-permuted": Pearson(reference=PERMUTED),
    "pearson-three-level": Pearson(reference=THREE_LEVEL),
    "weighted-permuted": WeightedCoincidence(PERMUTED),
    "weighted-three-level": WeightedCoincidence(THREE_LEVEL),
}


class TestSymbolGroups:
    """FTable.groups and FTable.mean against a Counter over the symbols and
    the full binomial sum over every count."""

    @pytest.mark.parametrize("stat", sorted(GROUP_STATISTICS))
    @pytest.mark.parametrize("source", sorted(GROUP_SOURCES))
    def test_groups_match_counter(self, stat, source):
        t = GROUP_STATISTICS[stat].table(5, GROUP_M)
        p = GROUP_SOURCES[source]
        assert t.groups(p) == counter_groups(t, p)  # order included

    @pytest.mark.parametrize("stat", sorted(GROUP_STATISTICS))
    @pytest.mark.parametrize("source", sorted(GROUP_SOURCES))
    def test_groups_match_unique(self, stat, source):
        t = GROUP_STATISTICS[stat].table(5, GROUP_M)
        p = GROUP_SOURCES[source]
        assert t.groups(p) == unique_groups(t, p)

    @pytest.mark.parametrize("p", [uniform(715542), biuniform_worst_case(715542, 0.45),
                                   biuniform_worst_case(715542, 0.6)])
    def test_shared_groups_read_the_census(self, p):
        # one (k, p_j, 0) per level, in level order, with no per-symbol array
        t = Coincidence().table(100, p.m)
        groups = t.groups(p)
        assert "probs" not in vars(p) and "index" not in vars(p)
        assert groups == unique_groups(t, p) == counter_groups(t, p)

    # sha256 prefixes of (support, probs) of each exact law: the `exact`
    # benchmark's five oracle cases and criterion 8's last point, each under
    # the uniform null and the bi-uniform alternative at eps = 0.45
    LAW_DIGESTS = {
        ("coincidence", 100, 1000): ("f110db937ab2f1e3", "39dd2cd6be9a78ab"),
        ("coincidence", 200, 2000): ("89bad522e8bb59c7", "13b0522e8076a206"),
        ("pearson-truncated", 100, 1000): ("38ae67b7425b2885", "28426f2dd5f5a012"),
        ("extended", 100, 1000): ("8b853c739e43b0ac", "245e0d5be41fb5bb"),
        ("pearson", 40, 400): ("b366b8d79928798f", "491adc5556938a57"),
        ("coincidence", 8000, 715542): ("774d1e2c148370e4", "93dd571a86a8d0b2"),
    }
    LAW_STATS = {"coincidence": Coincidence(), "pearson-truncated": PearsonTruncated(),
                 "extended": ExtendedCoincidence((0, 1, 3)), "pearson": Pearson()}

    @pytest.mark.parametrize("case", sorted(LAW_DIGESTS))
    def test_laws_keep_their_bits(self, case):
        name, n, m = case
        for p, digest in zip((uniform(m), biuniform_worst_case(m, 0.45)), self.LAW_DIGESTS[case]):
            law = exact_distribution(self.LAW_STATS[name], p, n)
            assert hashlib.sha256(law.support.tobytes() + law.probs.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("n", LAW_NS)
    @pytest.mark.parametrize("source", sorted(LAW_SOURCES))
    @pytest.mark.parametrize("stat", sorted(LAW_STATISTICS) + ["capped"])
    def test_mean_matches_full_sum(self, stat, source, n):
        stat, p = LAW_STATISTICS.get(stat, CappedTable()), LAW_SOURCES[source]
        t = stat.table(n, p.m)
        assert t.mean(t.groups(p), n) == approx(full_sum_expectation(stat, p, n), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", LAW_NS)
    @pytest.mark.parametrize("source", sorted(REFERENCED_SOURCES))
    def test_referenced_mean_matches_full_sum(self, source, n):
        p = REFERENCED_SOURCES[source]
        assert exact_expectation(REFERENCED_PEARSON, p, n) == approx(
            full_sum_expectation(REFERENCED_PEARSON, p, n), rel=1e-12, abs=0)


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
        # exact ties of sum x^2 whose first point is hard to tell from a
        # later one by float values alone
        (4, 10, 0.25): ([5, 2, 2, 1], 1.36),
        (5, 100, 0.1): ([25, 25, 17, 17, 16], 1.0420000000000003),
        (5, 100, 0.145833): ([28, 27, 15, 15, 15], 1.094),
        (5, 100, 0.25): ([33, 32, 12, 12, 11], 1.2610000000000001),
        (5, 200, 0.145833): ([55, 55, 30, 30, 30], 1.0937500000000002),
        (6, 10, 0.45): ([4, 4, 1, 1, 0, 0], 2.0400000000000005),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_argmin(self, key):
        m, mesh, eps = key
        counts, pinned = self.PINNED[key]
        argmin, value = worst_case_bruteforce(m, eps, mesh)
        assert np.rint(argmin.probs * mesh).astype(int).tolist() == counts
        assert value == approx(pinned, rel=1e-14)

    @pytest.mark.parametrize("key", [
        (4, 10, 0.25), (5, 100, 0.1), (5, 100, 0.145833), (5, 100, 0.25), (5, 200, 0.145833),
        (6, 10, 0.45),
    ])
    def test_tie_values_are_exact_grid_sums(self, key):
        # the value is m sum x^2 / mesh^2, rounded once from the integer sum
        m, mesh, eps = key
        counts, _ = self.PINNED[key]
        _, value = worst_case_bruteforce(m, eps, mesh)
        assert value == m * sum(x * x for x in counts) / mesh**2

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("mesh", [1, 2, 3, 7, 10, 16])
    def test_matches_exact_reference(self, m, mesh):
        for eps in (0.0, 0.1, 0.1125, 0.145833, 0.25, 0.45, 0.6, 0.9):
            try:
                counts, exact = bruteforce_reference(m, eps, mesh)
            except ValueError:
                with pytest.raises(ValueError):
                    worst_case_bruteforce(m, eps, mesh)
                continue
            argmin, value = worst_case_bruteforce(m, eps, mesh)
            assert np.rint(argmin.probs * mesh).astype(int).tolist() == counts, eps
            assert value == approx(float(exact), rel=1e-14), eps

    def test_matches_unpruned_walk(self):
        # the pruned walk against the unpruned one on seeded random grids,
        # eps drawn uniformly and on exact shell values k / (2 m mesh)
        rng = np.random.default_rng(2024)
        refusals = 0
        for case in range(600):
            m = int(rng.integers(2, 7))
            mesh = int(rng.integers(1, (90 if m == 6 else 200) + 1))
            if case % 2:
                eps = float(rng.uniform(0.0, 1.0))
            else:
                eps = int(rng.integers(0, 2 * (m - 1) * mesh + 1)) / (2 * m * mesh)
            try:
                counts, value = bruteforce_walk(m, eps, mesh)
            except ValueError:
                refusals += 1
                with pytest.raises(ValueError):
                    worst_case_bruteforce(m, eps, mesh)
                continue
            argmin, got = worst_case_bruteforce(m, eps, mesh)
            key = (m, mesh, eps)
            assert np.rint(argmin.probs * mesh).astype(int).tolist() == counts, key
            assert got == value, key
        assert 0 < refusals < 300

    def test_pruned_walk_returns_every_tie(self):
        # the whole pruned output, shell and incumbent set as the brute force
        # sets them: every row in the shell of least sum x^2, in order
        rng = np.random.default_rng(2027)
        compositions, shells = {}, 0
        for case in range(600):
            slots = int(rng.integers(2, 7))
            total = int(rng.integers(1, (25 if slots == 6 else 40) + 1))
            eps = float(rng.uniform(0.0, 1.0))
            shell = (eps - 1e-12) * 2 * slots * total
            key = (total, slots)
            if key not in compositions:
                compositions[key] = np.array(sorted_compositions(total, slots, total))
            every = compositions[key]
            inside = every[np.abs(slots * every - total).sum(axis=1) >= shell]
            sums = (inside * inside).sum(axis=1)
            want = inside[sums == sums.min(initial=total * total)]
            rows, sq = _partition_levels(total, slots, total, shell, total * total)
            assert rows.tolist() == want.tolist(), (case, total, slots, eps)
            assert sq.tolist() == (want * want).sum(axis=1).tolist(), (case, total, slots, eps)
            shells += bool(want.size)
        assert 300 < shells < 600

    @pytest.mark.parametrize("total,slots,cap", [
        (0, 1, 0), (5, 1, 5), (5, 1, 4), (0, 3, 0), (7, 3, 7), (7, 3, 3),
        (7, 3, 2),  # cap below total / slots: no row
        (12, 4, 5), (10, 5, 10), (9, 2, 6),
    ])
    def test_partitions_match_enumeration(self, total, slots, cap):
        # no incumbent, and a shell every row reaches: nothing is pruned
        rows, sq = _partition_levels(total, slots, cap, 0.0)
        assert sq.tolist() == (rows * rows).sum(axis=1).tolist()
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


@pytest.mark.slow
class TestSweepScaleReference:
    """Exact error probabilities at the first criterion-8 point,
    n = 1000 and m = ceil(n^1.5), for the sweep estimates to be held to:
    4 windowed grids of 320 x 160 (null) and 320 x 200 (alternative)."""

    N, M, EPS = 1000, math.ceil(1000**1.5), 0.45
    PF, PM = 0.069197029, 0.098222273

    @pytest.fixture(scope="class")
    def setting(self):
        stat = Coincidence()
        rule = make_threshold(stat, self.N, self.M, tau=equalizing_tau(self.EPS), eps=self.EPS)
        # each law fits the default cell budget
        pf, pm = exact_error_probs(stat, rule, uniform(self.M),
                                   biuniform_worst_case(self.M, self.EPS), self.N)
        return stat, rule, pf, pm

    def test_exact_values(self, setting):
        _, _, pf, pm = setting
        assert pf == approx(self.PF, abs=5e-10)
        assert pm == approx(self.PM, abs=5e-10)

    def test_monte_carlo_within_five_standard_errors(self, setting):
        stat, rule, pf, pm = setting
        trials = 2**16
        plan = SimPlan(n=self.N, m=self.M, eps=self.EPS, statistic=stat, rule=rule,
                       trials=trials, seed=20261018)
        for exact, estimate in ((pf, estimate_pf(plan)), (pm, estimate_pm(plan))):
            se = math.sqrt(exact * (1.0 - exact) / trials)
            assert abs(estimate.p_hat - exact) <= 5.0 * se


class TestSweepScaleReferenceN2000(TestSweepScaleReference):
    """The second criterion-8 point, n = 2000 and m = 89443: 4 grids of
    450 x 180 and 450 x 243 cells."""

    N, M = 2000, math.ceil(2000**1.5)
    PF, PM = 0.041290748, 0.059934755


class TestSweepScaleReferenceN4000(TestSweepScaleReference):
    """The third criterion-8 point, n = 4000 and m = 252983: 4 grids of
    625 x 216 and 625 x 300 cells."""

    N, M = 4000, math.ceil(4000**1.5)
    PF, PM = 0.02517229973, 0.02651970494


class TestSweepScaleReferenceN8000(TestSweepScaleReference):
    """The last criterion-8 point, n = 8000 and m = 715542: 4 grids of
    900 x 270 and 900 x 360 cells, within the default budget, which the full
    grid of every count and value (4 of 8100 x 8100) exceeds."""

    N, M = 8000, math.ceil(8000**1.5)
    PF, PM = 0.009660003712, 0.01103126736


@pytest.mark.parametrize("call,error,fragment", [
    (lambda: ExactDistribution(np.array([0.0, 1.0]), np.array([1.0])), ValueError,
     "support and probs must be matching vectors"),
    (lambda: ExactDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5])), ValueError,
     "probabilities must be non-negative"),
    (lambda: ExactDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.4])), ValueError,
     "probabilities sum to"),
    (lambda: ExactDistribution(np.array([0.0, 1.0]), np.array([math.nan, math.nan])), ValueError,
     "probabilities must be non-negative"),
    (lambda: ExactDistribution(np.array([0.0, 1.0]), np.array([math.nan, 1.0])), ValueError,
     "probabilities must be non-negative"),
    (lambda: ExactDistribution(np.array([0.0, math.nan]), np.array([0.5, 0.5])), ValueError,
     "support values must be finite"),
    (lambda: ExactDistribution(np.array([0.0, math.inf]), np.array([0.5, 0.5])), ValueError,
     "support values must be finite"),
    (lambda: exact_distribution(Coincidence(), uniform(4), -1), ValueError,
     "sample size must be >= 0, got -1"),
    (lambda: exact_expectation(Coincidence(), uniform(4), -1), ValueError,
     "sample size must be >= 0, got -1"),
    (lambda: exact_error_probs(Coincidence(), absolute_threshold(Coincidence(), 5, 4, 0.0),
                               uniform(4), uniform(5), 5), ValueError,
     "alphabet sizes differ: 4 vs 5"),
    (lambda: worst_case_bruteforce(3, 0.3, 0), ValueError, "mesh must be >= 1, got 0"),
    (lambda: worst_case_bruteforce(3, 1.0, 10), ValueError, "eps must lie in [0, 1), got 1.0"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
