"""Unit tests for gee.montecarlo."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import MT19937, Generator, Philox
from pytest import approx

from gee import montecarlo, pmf
from gee.montecarlo import (
    _block_values,
    _fingerprint_sampler,
    _fingerprints,
    _make_sampler,
    _poisson_cdf,
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
from gee.exponents import equalizing_tau
from gee.oracle import ExactDistribution, exact_distribution, exact_error_probs, exact_expectation
from gee.pmf import Pmf, _GuidedCdf, biuniform_worst_case, permuted_worst_case, uniform
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

from .oracles import direct_value, run_python


def drifting_pmf(m, drift, seed=0):
    """A random pmf on m symbols whose sum is 1 + drift, with zero mass on
    the first, middle and last symbols and on about one in ten others."""
    rng = np.random.default_rng(seed)
    w = rng.random(m) * (rng.random(m) < 0.9)
    w[[0, m // 2, -1]] = 0.0
    w /= w.sum()
    w[1] += drift
    return Pmf(w)


def three_level_pmf(m):
    """Probabilities in the ratio 3 : 1 : 2, repeated along the m symbols:
    three levels, interleaved, so the general paths draw it."""
    w = np.resize([3.0, 1.0, 2.0], m)
    return Pmf(w / w.sum())


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

    def test_alias_table_built_once(self, monkeypatch):
        built = []

        class CountingTable(pmf._GuidedCdf):
            def __init__(self, tables, *args):
                built.append(tables[0][1].size)
                super().__init__(tables, *args)

        monkeypatch.setattr(pmf, "_GuidedCdf", CountingTable)
        source = three_level_pmf(50)
        rng = np.random.default_rng(11)
        rows = [sample_occupancy(source, 30, rng).phi.tolist() for _ in range(3)]
        assert built == [50]
        # the rows recorded under RNG_ALGORITHM -v7 (bits-first table draws,
        # each row from a Philox generator keyed by rng)
        assert rows == [[29, 14, 5, 2], [31, 10, 7, 2], [28, 15, 6, 1]]

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

    def test_fingerprint_blocks_stay_on_the_calling_thread(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was started")

        def counts(streams):
            plan = coincidence_plan(300, 5000, 0.45, 0.2, 3 * montecarlo.BLOCK_TRIALS, seed=19,
                                    streams=streams)
            return estimate_pf(plan).exceed_count, estimate_pm(plan).exceed_count

        assert coincidence_plan(300, 5000, 0.45, 0.2, 1, seed=19).sampler == {
            "pf": "fingerprint", "pm": "fingerprint"}
        expected = counts(1)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", NoPool)
        assert counts(2) == expected
        with pytest.raises(AssertionError, match="thread pool"):  # other paths still use one
            estimate_pf(coincidence_plan(12, 30, 0.3, 0.2, 3 * montecarlo.BLOCK_TRIALS, seed=19, streams=2))

    def test_fingerprinted_tally_blocks_use_the_thread_pool(self, monkeypatch):
        def count(streams):
            plan = coincidence_plan(4000, 500, 0.35, 0.2, 3 * montecarlo.BLOCK_TRIALS, seed=19,
                                    streams=streams)
            return estimate_pf(plan).exceed_count

        assert _sampler_path(uniform(500), 4000, [Coincidence().table(4000, 500)]) == "tally"
        expected = count(1)
        pools, pool = [], montecarlo.ThreadPoolExecutor
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or pool(**kw))
        assert count(2) == expected and pools == [{"max_workers": 1}]

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

    def test_permuted_alternative_takes_the_direct_path(self):
        # the permuted worst case has two levels out of symbol order; its
        # direct draws of level-ordered labels keep the acceptance probability
        n, m, eps, tau, trials = 12, 30, 0.3, 0.2, 50_000
        alt = permuted_worst_case(m, eps, set(range(2, 2 + m // 2)))
        plan = coincidence_plan(n, m, eps, tau, trials, seed=13, alternative=alt)
        assert plan.sampler == {"pf": "sorted", "pm": "sorted"} and alt.groups[0].size == 2
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
            Pearson(reference=biuniform_worst_case(m, 0.3)),
        ]

    @pytest.mark.parametrize("n,m", [(1, 2), (6, 4), (30, 12), (40, 3), (40, 60)])
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

    @pytest.mark.parametrize("path,source,n", [
        ("tally", uniform(12), 60),
        ("tally", biuniform_worst_case(13, 0.3), 60),
        ("tally", permuted_worst_case(12, 0.3, set(range(2, 13, 2))), 60),
        ("sorted", permuted_worst_case(50, 0.3, set(range(2, 27))), 30),
        ("sorted", three_level_pmf(50), 30),
        ("sorted", drifting_pmf(40, 5e-13), 30),
        ("fingerprint", uniform(5000), 300),
        ("fingerprint", biuniform_worst_case(5000, 0.45), 300),
    ])
    def test_sampled_blocks(self, path, source, n):
        m = source.m
        chosen, draw = _make_sampler(source, n, ())
        assert chosen == path
        data = drawn(draw, np.random.default_rng(n), 64)
        counts = rebuilt_counts(path, data, m)
        if path != "fingerprint":  # zero-mass symbols never appear
            assert not counts[:, source.probs == 0.0].any()
        stats = self.statistics(m)
        tables = [stat.table(n, m) for stat in stats]
        if path == "fingerprint":  # fingerprints carry no symbol identities
            stats, tables = zip(*[(s, t) for s, t in zip(stats, tables) if t.group is None])
        for stat, values in zip(stats, _block_values(tables, path, data, m)):
            expected = np.array([stat.from_counts(row) for row in counts])
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(values - expected).max() <= 1e-12 * scale, stat.name

    @pytest.mark.parametrize("path,source,n", [
        ("tally", biuniform_worst_case(12, 0.3), 60),
        ("tally", uniform(50), 1700),  # 19 of 64 rows hold a count of m or more
        ("counts", three_level_pmf(12), 200),
        ("counts", three_level_pmf(50), 1200),  # 14 of 64 rows
        # three symbols at 0.175: 41 of 64 rows hold a count of m or more,
        # so the piece is read per symbol and 23 rows alone off fingerprints
        ("tally", Pmf(np.r_[np.full(3, 0.175), np.full(73, 0.475 / 73)]), 400),
        ("sorted", permuted_worst_case(50, 0.3, set(range(2, 51, 2))), 30),
        ("sorted", three_level_pmf(50), 30),
        ("fingerprint", uniform(5000), 300),
        ("fingerprint", biuniform_worst_case(5000, 0.45), 300),
    ])
    def test_integer_cores_are_row_exact(self, path, source, n):
        # a piece's values of an integer-core table equal each row's alone,
        # whether the piece and the row sum fingerprints or per-symbol entries
        m = source.m
        ref = Pmf(np.resize([1.5, 0.5], m) / m)  # m p_j of 3/2 and 1/2: an integer core
        stats = [Coincidence(), Pearson(), PearsonTruncated(), ExtendedCoincidence((0.0, 1.0, 3.0)),
                 WeightedCoincidence(uniform(m)), WeightedCoincidence(ref)]
        if path == "fingerprint":  # fingerprints carry no symbol identities
            stats = stats[:-1]
        tables = [stat.table(n, m) for stat in stats]
        assert all(np.array_equal(t.f, np.rint(t.f)) for t in tables)
        chosen, draw = _make_sampler(source, n, tables)
        assert chosen == path
        data = drawn(draw, np.random.default_rng(n), 64)
        values = _block_values(tables, path, data, m)
        for i in range(len(data)):
            for stat, v, alone in zip(stats, values, _block_values(tables, path, data[i:i + 1], m)):
                assert v[i] == alone[0], (stat.name, i)

    @pytest.mark.parametrize("n,m,stats,limit", [
        # cut at Pearson's K = n, fingerprints of these rows would take
        # 2048 x ~10^4 int64 cells (160 MB); the values come off the (2048, 2) counts
        (20000, 2, [Pearson(), Coincidence()], 1 << 20),
        # counts near 2200: whole fingerprints before coincidence's cut at
        # K = 2 would take ~34 MiB; the values come off the (2048, 50) counts
        (100000, 50, [Coincidence()], 4 << 20),
    ])
    def test_count_blocks_far_past_the_alphabet(self, n, m, stats, limit):
        path, draw = _make_sampler(uniform(m), n, ())
        data = drawn(draw, np.random.default_rng(3), montecarlo.BLOCK_TRIALS)
        tracemalloc.start()
        try:
            values = _block_values([stat.table(n, m) for stat in stats], path, data, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
        for stat, v in zip(stats, values):
            assert np.array_equal(v, [stat.from_counts(row) for row in data]), stat.name

    @pytest.mark.parametrize("source", [uniform(500), biuniform_worst_case(500, 0.35)])
    def test_paired_dense_block_builds_no_count_matrix(self, source):
        # a (2048, 500) int64 count matrix is 8 MB and its fingerprint keys
        # 8 MB more; chunk by chunk a block holds ~1 MB of counts
        n, m = 4000, 500
        stats = [Coincidence(), Pearson(), PearsonTruncated(),
                 ExtendedCoincidence((0.0, 1.0, 3.0)), WeightedCoincidence(uniform(m))]
        tracemalloc.start()
        try:
            simulate_statistics(source, stats, n, montecarlo.BLOCK_TRIALS, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    @pytest.mark.parametrize("source,stats", [
        (biuniform_worst_case(500, 0.99), [Coincidence(), Pearson()]),  # counts of ~800 > m
        (uniform(500), [Coincidence(), Pearson(reference=biuniform_worst_case(500, 0.3))]),
    ])
    def test_count_blocks_stay_within_a_chunk(self, source, stats):
        # these blocks read per-symbol entries off their count rows, one
        # ~1 MB chunk at a time, never off a whole 8 MB count matrix
        n, m, b = 4000, 500, montecarlo.BLOCK_TRIALS
        tracemalloc.start()
        try:
            values = simulate_statistics(source, stats, n, b, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20
        counts = drawn(_make_sampler(source, n, ())[1], montecarlo._block_rng(2, 0, 0), b)
        for stat, v in zip(stats, values):
            assert np.array_equal(v, [stat.from_counts(row) for row in counts]), stat.name

    def test_values_do_not_depend_on_blas_threads(self):
        # one block per path: fingerprint, sorted (two levels and three) and tally
        script = """
            import hashlib
            from gee.montecarlo import simulate_statistics
            import numpy as np
            from gee.pmf import Pmf, biuniform_worst_case, uniform
            from gee.statistics import ExtendedCoincidence
            stat = ExtendedCoincidence((0.1, -0.3, 0.7))
            w = np.resize([3.0, 1.0, 2.0], 50)
            sources = [(uniform(5000), 300), (biuniform_worst_case(51, 0.3), 30),
                       (Pmf(w / w.sum()), 30), (uniform(12), 60)]
            digest = hashlib.sha256()
            for source, n in sources:
                digest.update(simulate_statistics(source, [stat], n, 2048, seed=17)[0].tobytes())
            print(digest.hexdigest())
        """
        digests = {run_python(script, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads) for threads in ("1", "2")}
        assert len(digests) == 1


def drawn(draw, rng, b):
    """A sampler's block of b rows, each piece copied before the next one
    is drawn into the same buffer."""
    return np.concatenate([piece.copy() for piece in draw(rng, b)])


def rebuilt_counts(path, data, m):
    """Per row of a sampled block, a count vector equal to the row's up to symbol order."""
    if path in ("tally", "counts"):
        return data
    if path == "fingerprint":
        return np.array([np.repeat(np.arange(row.size), row) for row in data])
    return np.array([np.bincount(row, minlength=m) for row in data])


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


def assert_tally_law(source, n, counts):
    """Chi-square of two statistics of tally-path rows against their exact laws."""
    stats = [Coincidence(), PearsonTruncated()]
    values = _block_values([s.table(n, source.m) for s in stats], "tally", counts, source.m)
    for stat, x in zip(stats, values):
        x2, df = chi_square(x, exact_distribution(stat, source, n))
        assert x2 <= chi_square_bound(df), (stat.name, x2, df)


class RawWords:
    """A stand-in Generator from whose raw words `table.draw` reads
    u = k / 2^53 in each cell of k: first each cell's bin in the top bits
    of a 16- or 32-bit slice over random bits, then, for each cell
    whose bin holds a breakpoint, the rest of k in the top bits of one
    more word over random bits."""

    def __init__(self, table, k, rng):
        bits, k = table.bits, k.reshape(-1)
        width = 16 if bits <= 16 else 32
        bins = k >> np.uint64(53 - bits)
        noise = rng.integers(0, 1 << (width - bits), size=k.size, dtype=np.uint64)
        slices = (bins << np.uint64(width - bits) | noise).astype(f"<u{width // 8}")
        slices = np.append(slices, np.zeros(-k.size % (64 // width), slices.dtype))
        j = bins.astype(np.intp)
        if table.column is not None:
            j += np.tile(table.column, k.size // table.column.size)
        rest = k[table.guide[j] < 0] & np.uint64((1 << (53 - bits)) - 1)
        noise = rng.integers(0, 1 << (11 + bits), size=rest.size, dtype=np.uint64)
        self.calls = [slices.view("<u8"), rest << np.uint64(11 + bits) | noise]
        self.bit_generator = self

    def random_raw(self, size):
        words = self.calls.pop(0)
        assert words.size == size
        return words


def moments_agree(x, y):
    """True when the first two moments of two samples of equal size agree
    within 5 standard errors."""
    c = np.concatenate([x, y]).mean()
    for k in (1, 2):
        a, b = (x - c) ** k, (y - c) ** k
        if abs(a.mean() - b.mean()) > 5 * math.sqrt((a.var() + b.var()) / x.size):
            return False
    return True


class RecordingRng:
    """A Generator that records the rows of each of its multinomial draws."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = []

    def multinomial(self, n, pvals, size):
        self.rows.append(size)
        return self.rng.multinomial(n, pvals, size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def assert_fingerprint_law(source, n, phi):
    """Chi-square of three statistics of drawn fingerprints against their exact laws."""
    m, stats = source.m, [Coincidence(), PearsonTruncated(), Pearson()]
    values = _block_values([s.table(n, m) for s in stats], "fingerprint", phi, m)
    for stat, x in zip(stats, values):
        x2, df = chi_square(x, exact_distribution(stat, source, n))
        assert x2 <= chi_square_bound(df), (stat.name, x2, df)


class TestFingerprintSampler:
    """The fingerprint sampler, called directly, against the exact oracle
    and the sorted reference path."""

    @pytest.mark.parametrize("source,n", [
        (uniform(30), 12),
        (uniform(6), 10),  # every symbol seen: the fresh-run table hits inf
        (biuniform_worst_case(30, 0.3), 12),
        # band mass 0.6: 2.6% of rows put all 4 draws in the low band, 13% in the high one
        (biuniform_worst_case(12, 0.1), 4),
        (biuniform_worst_case(20, 0.6), 9),  # the low band has no mass: k = n always
        (uniform(400), 60),
        (biuniform_worst_case(400, 0.3), 60),
    ])
    def test_law_matches_oracle(self, source, n):
        phi = drawn(_fingerprint_sampler(source, n), np.random.default_rng(n * source.m), 40_000)
        assert_fingerprint_law(source, n, phi)

    @pytest.mark.parametrize("size,n", [(715542, 8000), (4096, 256), (6, 10), (2, 1), (10**9, 300)])
    def test_guided_search_matches_binary_search(self, size, n, rng):
        chain = _RepeatChain(size, n)
        seen = rng.integers(0, min(size, n) + 1, size=5000)
        e = np.concatenate([rng.standard_exponential(4990), [0.0, 1e-300, 50.0, 700.0, 1e6], np.zeros(5)])
        x = chain.a[seen] + e
        expected = np.searchsorted(chain.a, x, side="right")
        assert np.array_equal(chain.count_le(x), expected)
        assert np.all(expected - 1 - seen >= (seen == 0))  # the first draw is always fresh

    @pytest.mark.parametrize("size,n", [(715542, 8000), (4096, 256), (6, 10), (2, 1), (1, 5), (10**9, 300)])
    def test_guide_starts_at_or_below_the_answer(self, size, n, rng):
        chain = _RepeatChain(size, n)
        finite = chain.a[np.isfinite(chain.a)]  # sizes <= n put inf past A[size]
        x = np.concatenate([rng.uniform(0.0, 1.1 * finite[-1] + 1.0, 5000), finite, np.nextafter(finite, 0), [1e6]])
        start = chain.guide[chain._bucket(x)]
        assert np.all(start <= np.searchsorted(chain.a, x, side="right"))

    @pytest.mark.parametrize("phi0,draws", [
        ([1, 1], 3),  # two or three hits on the one seen symbol: class 1 -> 4
        ([1, 1, 1], 1),
        ([3, 1], 3),  # a fresh symbol of the top-up hit again
        ([2, 1, 1], 6),
        ([0, 1, 1, 1], 4),  # every symbol seen, classes up to 3: class 3 -> 7
        ([1, 0, 2, 0], 5),
        ([4, 0], 5),  # nothing seen before the top-up
    ])
    def test_top_up_law_by_enumeration(self, phi0, draws):
        # the exact law of the fingerprint after `draws` more draws, over
        # all size^draws label sequences from counts with fingerprint phi0
        size = sum(phi0)
        start = np.repeat(np.arange(len(phi0)), phi0)
        base = size + 1  # phi_c <= size: a fingerprint is a number in base size + 1
        law = {}
        for seq in itertools.product(range(size), repeat=draws):
            phi = np.bincount(start + np.bincount(seq, minlength=size))
            key = int(phi @ base ** np.arange(phi.size))
            law[key] = law.get(key, 0) + 1
        support = np.array(sorted(law), dtype=float)
        exact = ExactDistribution(support, np.array([law[k] for k in sorted(law)]) / size**draws)
        rows = 40_000
        chain = _RepeatChain(size, int(start.sum()) + draws)
        phi = chain.top_up(np.random.default_rng(size * draws), np.tile(phi0, (rows, 1)), np.full(rows, draws))
        assert np.all(phi.sum(axis=1) == size)
        assert np.all(phi @ np.arange(phi.shape[1]) == start.sum() + draws)
        assert phi.shape[1] == max(len(phi0), np.flatnonzero(phi.any(axis=0))[-1] + 1)
        x2, df = chi_square((phi @ float(base) ** np.arange(phi.shape[1])), exact)
        assert x2 <= chi_square_bound(df), (x2, df)

    @pytest.mark.parametrize("source,n", [
        (uniform(5000), 300),
        (biuniform_worst_case(5000, 0.45), 300),
        (biuniform_worst_case(12, 0.1), 4),
        (uniform(6), 10),
        (biuniform_worst_case(20, 0.6), 9),
    ])
    def test_rows_are_fingerprints(self, source, n):
        m = source.m
        phi = drawn(_fingerprint_sampler(source, n), np.random.default_rng(7), 300)
        assert phi.min() >= 0 and phi[:, -1].any()  # cut after the block's largest count
        assert np.all(phi.sum(axis=1) == m)
        assert np.all(phi @ np.arange(phi.shape[1]) == n)
        stats = TestKernelsMatchCounts.statistics(m)[:6]
        values = _block_values([s.table(n, m) for s in stats], "fingerprint", phi, m)
        for i, row in enumerate(rebuilt_counts("fingerprint", phi, m)):
            for stat, x in zip(stats, values):
                assert x[i] == approx(direct_value(stat, row), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("slack", [montecarlo._TALLY_SLACK, 0.0])
    def test_redrawn_rows_keep_the_law(self, slack, monkeypatch):
        # at slack 0 the Poisson mean is n and about half the rows redraw
        monkeypatch.setattr(montecarlo, "_TALLY_SLACK", slack)
        source, n, trials = biuniform_worst_case(400, 0.3), 60, 40_000
        rng = RecordingRng(np.random.default_rng(7))
        phi = drawn(_fingerprint_sampler(source, n), rng, trials)
        rows = sum(rng.rows) // source.groups[0].size  # one multinomial per level and round
        assert rows > trials  # some rows were drawn twice
        assert np.all(phi @ np.arange(phi.shape[1]) == n)
        assert_fingerprint_law(source, n, phi)

    @pytest.mark.parametrize("source,n", [(uniform(6), 9), (biuniform_worst_case(8, 0.3), 9)])
    def test_counts_grow_past_the_poisson_window(self, source, n, monkeypatch):
        # n - 3 sqrt(n) <= 0: the Poisson window is class 0 alone, and the
        # top-up draws add every further class
        monkeypatch.setattr(montecarlo, "_TALLY_SLACK", 3.0)
        assert n <= montecarlo._TALLY_SLACK * math.sqrt(n)
        phi = drawn(_fingerprint_sampler(source, n), np.random.default_rng(n), 40_000)
        assert phi.shape[1] > 3
        assert_fingerprint_law(source, n, phi)

    def test_null_mean_closed_form(self):
        n, m, trials = 1000, 31623, 40_960
        assert _sampler_path(uniform(m), n, [Coincidence().table(n, m)]) == "fingerprint"
        phi1 = -simulate_statistics(uniform(m), [Coincidence()], n, trials, seed=31)[0]
        se = phi1.std() / math.sqrt(trials)
        assert abs(phi1.mean() - n * (1 - 1 / m) ** (n - 1)) <= 5 * se

    @pytest.mark.parametrize("source", [uniform(31623), biuniform_worst_case(31623, 0.45)])
    def test_moments_match_sorted_path(self, source, request):
        n, m, trials = 1000, 31623, 20_480
        stats = TestKernelsMatchCounts.statistics(m)[:4] + [WeightedCoincidence(uniform(m))]
        drawn = simulate_statistics(source, stats, n, trials, seed=41)
        request.getfixturevalue("reference_paths")
        reference = simulate_statistics(source, stats, n, trials, seed=43)
        for stat, x, y in zip(stats, drawn, reference):
            assert moments_agree(x, y), stat.name

    def test_path_rule(self):
        # each cut from both sides: tally from n = 2m, fingerprint from m = 768
        # at n >= 100 with every table shared, counts from n = 16m
        coin = [Coincidence().table(1000, 768)]
        ref = Pmf(np.arange(1, 5001) / (5000 * 5001 / 2))
        assert _sampler_path(uniform(500), 1000, coin) == "tally"
        assert _sampler_path(biuniform_worst_case(500, 0.3), 1000, coin) == "tally"
        assert _sampler_path(uniform(501), 1000, coin) == "sorted"
        assert _sampler_path(uniform(767), 1000, coin) == "sorted"
        assert _sampler_path(uniform(768), 1000, coin) == "fingerprint"
        assert _sampler_path(biuniform_worst_case(768, 0.3), 1000, coin) == "fingerprint"
        assert _sampler_path(uniform(768), 1535, coin) == "fingerprint"
        assert _sampler_path(uniform(768), 1536, coin) == "tally"
        assert _sampler_path(uniform(4096), 100, coin) == "fingerprint"
        assert _sampler_path(uniform(4096), 99, coin) == "sorted"
        assert _sampler_path(uniform(5000), 300, [Pearson(reference=ref).table(300, 5000)]) == "sorted"
        assert _sampler_path(uniform(5000), 300, ()) == "fingerprint"
        alt = permuted_worst_case(16000, 0.3, set(range(2, 8002)))
        assert _sampler_path(alt, 1000, coin) == "fingerprint"  # two levels in any order
        dense = permuted_worst_case(500, 0.3, set(range(2, 252)))
        assert _sampler_path(dense, 1000, coin) == "tally"
        assert _sampler_path(three_level_pmf(16000), 1000, coin) == "sorted"
        assert _sampler_path(three_level_pmf(500), 1000, coin) == "sorted"
        assert _sampler_path(three_level_pmf(63), 1000, coin) == "sorted"
        assert _sampler_path(three_level_pmf(62), 1000, coin) == "counts"

    def test_benchmark_traffic(self):
        # the points of perfbench/workloads.py: a change to the path rule
        # must not move the benchmark's traffic unnoticed
        for n in (1000, 2000, 4000, 8000):  # sweep: coincidence, m = ceil(n^1.5)
            m = math.ceil(n**1.5)
            for source in (uniform(m), biuniform_worst_case(m, 0.45)):
                assert _sampler_path(source, n, [Coincidence().table(n, m)]) == "fingerprint"
        for (n, m), path in (((2000, 89443), "fingerprint"), ((4000, 500), "tally")):  # paired
            stats = [Coincidence(), Pearson(), PearsonTruncated(),
                     ExtendedCoincidence((0.0, 1.0, 3.0)), WeightedCoincidence(uniform(m))]
            tables = [s.table(n, m) for s in stats]
            for source in (uniform(m), biuniform_worst_case(m, 0.35)):
                assert _sampler_path(source, n, tables) == path
        for n in (12, 16):  # sweep set-up: byte-identical rows, m = ceil(n^1.5)
            m = math.ceil(n**1.5)
            for source in (uniform(m), biuniform_worst_case(m, 0.45)):
                assert _sampler_path(source, n, [Coincidence().table(n, m)]) == "sorted"

    def test_plan_reports_paths(self):
        plan = coincidence_plan(1000, 31623, 0.45, 0.2, 10, seed=1)
        assert plan.sampler == {"pf": "fingerprint", "pm": "fingerprint"}
        plan = coincidence_plan(12, 30, 0.45, 0.2, 10, seed=1)
        assert plan.sampler == {"pf": "sorted", "pm": "sorted"}

    def test_sample_occupancy_fingerprint_row(self):
        rng = np.random.default_rng(3)
        phi1 = np.array([sample_occupancy(uniform(5000), 300, rng).level(1) for _ in range(100)])
        se = phi1.std() / math.sqrt(phi1.size)
        assert abs(phi1.mean() - 300 * (1 - 1 / 5000) ** 299) <= 5 * se


class TestSampleOccupancyPaths:
    """sample_occupancy and the block fingerprints on every sampler path
    against the fingerprints of the count vectors rebuilt from the same
    draw."""

    CASES = [
        ("tally", uniform(12), 60),
        ("tally", biuniform_worst_case(12, 0.3), 60),
        ("tally", permuted_worst_case(12, 0.3, set(range(2, 8))), 60),
        ("counts", three_level_pmf(12), 200),
        ("sorted", uniform(50), 30),
        ("sorted", uniform(50), 1),
        ("sorted", uniform(50), 0),
        ("sorted", biuniform_worst_case(51, 0.3), 30),
        ("sorted", biuniform_worst_case(51, 0.3), 1),
        ("sorted", biuniform_worst_case(51, 0.3), 0),
        ("sorted", permuted_worst_case(50, 0.3, set(range(2, 51, 2))), 30),
        ("sorted", three_level_pmf(50), 30),
        ("sorted", three_level_pmf(50), 1),
        ("sorted", three_level_pmf(50), 0),
        ("fingerprint", uniform(5000), 300),
        ("fingerprint", biuniform_worst_case(5000, 0.45), 300),
        ("fingerprint", permuted_worst_case(5000, 0.45, set(range(2, 5001, 2))), 300),
    ]

    @pytest.mark.parametrize("path,source,n", CASES)
    def test_matches_rebuilt_counts(self, path, source, n):
        m = source.m
        chosen, draw = _make_sampler(source, n, ())
        assert chosen == path
        for seed in range(5):
            fp = sample_occupancy(source, n, np.random.default_rng(seed))
            # sample_occupancy draws from a Philox generator keyed by its rng
            key = np.random.default_rng(seed).integers(1 << 64, size=2, dtype=np.uint64)
            row = drawn(draw, Generator(Philox(key=key)), 1)
            if path == "fingerprint":  # the drawn fingerprint itself
                assert fp.phi.tolist() == row[0].tolist()
            counts = rebuilt_counts(path, row, m)[0]
            # phi runs to the largest count seen, so n = 0 gives [m]
            assert fp.phi.tolist() == occupancy(counts).phi.tolist()
        data = drawn(draw, np.random.default_rng(n), 40)
        counts = rebuilt_counts(path, data, m)
        largest = int(counts.max())
        # top = n keeps every level; one below the largest count folds the
        # top levels into the last column
        for top in sorted({n, max(largest - 1, 0)}):
            cut = min(top, largest)
            phi = _fingerprints(path, data, m, top)
            assert phi.shape == (len(counts), cut + 1)
            for row, got in zip(counts, phi):
                fp = occupancy(row)
                assert got.tolist() == [fp.level(c) for c in range(cut)] + [int(fp.phi[cut:].sum())]

    @pytest.mark.parametrize("path,source,n", [
        ("tally", uniform(12), 60),
        ("sorted", three_level_pmf(50), 30),
        ("fingerprint", biuniform_worst_case(4096, 0.45), 256),
    ])
    def test_law_under_a_32_bit_generator(self, path, source, n):
        # MT19937's raw words hold 32 random bits, where the table draws read 64
        assert _sampler_path(source, n, ()) == path
        rng = Generator(MT19937(5))
        phi = [sample_occupancy(source, n, rng).phi for _ in range(3000)]
        for stat in (Coincidence(), PearsonTruncated()):
            table = stat.table(n, source.m)
            x = np.array([(p * table.f[0, np.minimum(np.arange(p.size), table.K)]).sum() for p in phi])
            x2, df = chi_square(x / table.scale + table.shift, exact_distribution(stat, source, n))
            assert x2 <= chi_square_bound(df), (stat.name, x2, df)


class TestStreams:
    """One block of each sampler path, hashed, against the digests pinned
    to RNG_ALGORITHM: a stream may move only with a new RNG_ALGORITHM."""

    RNG_ALGORITHM = "philox4x64-block2048-v12"
    # sha256 prefix of the block's values as little-endian int64; the
    # chunked ones span 8 chunks of 256 count rows.  The counts ones, on
    # the three-level source, were recorded under -v10 at points past the
    # counts cut of n = 16m; the three-level sorted one under -v7, and the
    # two-level one under -v10, when every source drew through its
    # inverse-CDF table; the fingerprint ones under -v9, with the Poisson
    # slack at 1.25 and the fingerprint top-up drawing its repeat targets
    # after the fresh runs; the tally ones under -v11, with counts drawn in
    # symbol order and the top-up drawn through the source's inverse-CDF table.
    # -v12 splits the fingerprint top-up by the first level's mass s p (one
    # rounding), no longer by a float sum over its symbols; these blocks kept
    # their digests
    DIGESTS = {
        "tally": (biuniform_worst_case(13, 0.3), 60, "d0a88fa5f18763e8"),
        "counts": (three_level_pmf(12), 200, "509eeee254b4206d"),
        "chunked tally": (biuniform_worst_case(500, 0.35), 4000, "8c43d710730d5fc2"),
        "chunked counts": (three_level_pmf(500), 8000, "87552b8f577b255f"),
        "two-level sorted": (permuted_worst_case(51, 0.3, set(range(2, 51, 2))), 30, "57f3ae0176f340b9"),
        "general sorted": (three_level_pmf(50), 30, "89631ab6ec45ce0e"),
        "fingerprint": (biuniform_worst_case(5000, 0.45), 300, "f3e41c80090ad435"),
        "permuted tally": (permuted_worst_case(13, 0.3, set(range(2, 13, 2))), 60, "b72287e56e12a193"),
        "permuted fingerprint": (permuted_worst_case(5000, 0.45, set(range(2, 5001, 2))), 300, "a70cf3cd15d80047"),
    }

    def test_block_digests(self):
        assert montecarlo.RNG_ALGORITHM == self.RNG_ALGORITHM, "re-record DIGESTS for the new RNG_ALGORITHM"
        moved = []
        for name, (source, n, digest) in self.DIGESTS.items():
            path, draw = _make_sampler(source, n, ())
            assert path == name.split()[-1]
            data = drawn(draw, montecarlo._block_rng(1, 0, 0), montecarlo.BLOCK_TRIALS)
            rows = np.asarray(data, dtype="<i8")
            if hashlib.sha256(rows.tobytes()).hexdigest()[:16] != digest:
                moved.append(name)
        assert not moved, f"the {', '.join(moved)} streams moved: bump RNG_ALGORITHM"

    @staticmethod
    def assert_sorted_inverse_cdf_rows(source, n, b, seed):
        # every source, of any number of levels, draws through its inverse-CDF table
        path, draw = _make_sampler(source, n, ())
        assert path == "sorted"
        rows = drawn(draw, np.random.default_rng(seed), b)
        assert rows.dtype == np.int32
        assert rows.shape == (b, n)
        table = source.inverse_cdf
        wide = _GuidedCdf([(0, table.keys)], None, table.bits)  # an int64 guide
        expected = wide.draw(np.random.default_rng(seed), np.empty((b, n), dtype=np.int64))
        assert np.array_equal(rows, np.sort(expected, axis=1))

    @pytest.mark.parametrize("source", [biuniform_worst_case(51, 0.3),
                                        permuted_worst_case(51, 0.3, set(range(2, 51, 2)))])
    @pytest.mark.parametrize("b", [1, 64])
    def test_two_level_sorted_rows_draw_n_symbols(self, source, b):
        # no level split: n symbols per row from the one guided table, in
        # contiguous or permuted level order, down to a block of one row
        self.assert_sorted_inverse_cdf_rows(source, 30, b, b)

    def test_uniform_sorted_rows_draw_n_symbols(self):
        self.assert_sorted_inverse_cdf_rows(uniform(50), 30, 64, 3)

    def test_general_sorted_rows_are_int32(self):
        self.assert_sorted_inverse_cdf_rows(drifting_pmf(5000, 5e-13), 300, 64, 3)


class TestTallySampler:
    """The tally sampler, called directly, against the exact oracle and
    the multinomial reference path."""

    SOURCES = [
        uniform(12),
        biuniform_worst_case(12, 0.3),
        biuniform_worst_case(13, 0.3),  # levels of 6 and 7 symbols
        biuniform_worst_case(12, 0.6),  # the low level has no mass: k = n always
        permuted_worst_case(13, 0.3, set(range(2, 13, 2))),  # the light level first
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_law_matches_oracle(self, source):
        n, m = 60, source.m
        assert _sampler_path(source, n, ()) == "tally"
        stats = [Coincidence(), PearsonTruncated()]
        counts = drawn(_tally_sampler(source, n), np.random.default_rng(m), 40_000)
        values = _block_values([s.table(n, m) for s in stats], "tally", counts, m)
        for stat, x in zip(stats, values):
            x2, df = chi_square(x, exact_distribution(stat, source, n))
            assert x2 <= chi_square_bound(df), (stat.name, x2, df)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("b", [1, 63, 65])
    def test_rows_are_count_vectors(self, source, b):
        n, m = 60, source.m
        counts = drawn(_tally_sampler(source, n), np.random.default_rng(b), b)
        assert counts.shape == (b, m) and counts.min() >= 0
        assert np.all(counts.sum(axis=1) == n)
        assert np.all(counts[:, source.probs == 0.0] == 0)
        # the block is one chunk: one guided draw per cell through its
        # symbol's level's Poisson table, each row over n drawn again, then
        # the rest of each row's symbols through the source's own table
        levels, _ = source.groups
        lam = n - montecarlo._TALLY_SLACK * math.sqrt(n)
        rng = np.random.default_rng(b)
        tables = [_poisson_cdf(lam * p) for p in levels]
        poisson = _GuidedCdf(tables, source.index if levels.size > 1 else None, montecarlo._GUIDE_BITS)
        y = poisson.draw(rng, np.empty((b, m), dtype=np.int64))
        while (over := np.flatnonzero(y.sum(axis=1) > n)).size:
            y[over] = poisson.draw(rng, np.empty((over.size, m), dtype=np.int64))
        rest = n - y.sum(axis=1)
        symbols = source.inverse_cdf.draw(rng, np.empty(rest.sum(), dtype=np.int32))
        for row, extra in zip(y, np.split(symbols, np.cumsum(rest)[:-1])):
            row += np.bincount(extra, minlength=m)
        assert np.array_equal(counts, y)

    def test_columns_are_in_symbol_order(self):
        # the light level first: in level order the first 7 columns would
        # hold the light symbols, and 6 columns would sit 97-183 standard
        # errors off their symbol's mean n p_j
        source, n = permuted_worst_case(13, 0.3, set(range(2, 13, 2))), 60
        assert source.probs[0] < source.probs[1]
        counts = drawn(_tally_sampler(source, n), np.random.default_rng(2), montecarlo.BLOCK_TRIALS)
        p = source.probs
        se = np.sqrt(n * p * (1 - p) / len(counts))
        assert np.all(np.abs(counts.mean(axis=0) - n * p) <= 5 * se)

    @pytest.mark.parametrize("source", [uniform(500), biuniform_worst_case(500, 0.35)])
    def test_moments_match_multinomial_path(self, source, request):
        n, m, trials = 4000, 500, 10_240
        stats = TestKernelsMatchCounts.statistics(m)[:4] + [WeightedCoincidence(uniform(m))]
        tally = simulate_statistics(source, stats, n, trials, seed=51)
        request.getfixturevalue("reference_paths")
        reference = simulate_statistics(source, stats, n, trials, seed=53)
        for stat, x, y in zip(stats, tally, reference):
            assert moments_agree(x, y), stat.name

    @pytest.mark.parametrize("case", [
        [0.0], [1e-9], [0.5, 7.6], [100.0, 0.0, 3.0], [5e5],  # Poisson means of one table each
        # general pmfs: zero mass first, in the middle and last, with sums
        # drifting within Pmf's tolerance under and over 1
        Pmf([0.0, 0.3, 0.0, 0.7 - 4e-13, 0.0]),
        Pmf([0.5 + 5e-13, 0.5, 0.0]),
        Pmf([0.1] * 9 + [0.1 - 4e-13, 0.0]),
        Pmf([0.5 + 5e-13, 0.5, 1e-14, 0.0]),  # the cumsum passes 1 before its last positive symbol
        drifting_pmf(5000, 5e-13),  # a 2^15-bin guide
        drifting_pmf(5000, -5e-13),
        drifting_pmf(20000, 5e-13),  # a 2^17-bin guide: bins from 32-bit slices
    ])
    def test_guided_inversion_matches_binary_search(self, case, rng):
        if isinstance(case, Pmf):
            table = case.inverse_cdf
            tables = [(0, table.keys)]
            assert table.guide.size == max(1 << 14, 1 << (4 * case.m - 1).bit_length())
            assert np.allclose(table.keys, np.cumsum(case.probs), rtol=0, atol=1e-12)
        else:
            tables = [_poisson_cdf(mu) for mu in case]
            table = _GuidedCdf(tables, np.arange(len(case)), montecarlo._GUIDE_BITS)
        grid = 1 << 53  # u = k / grid, as `Generator.random` draws it
        edges = np.arange(table.guide.size // len(tables), dtype=np.uint64) << np.uint64(53 - table.bits)
        for t, (lo, cdf) in enumerate(tables):
            assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
            # random u, the grid points around each breakpoint, each guide
            # edge and the grid point just below it
            at = np.floor(cdf[cdf < 1] * grid).astype(np.uint64)
            k = np.concatenate([
                rng.integers(0, grid, size=20_000, dtype=np.uint64),
                at, np.minimum(at + 1, grid - 1), np.maximum(at, 1) - 1,
                edges, edges[1:] - 1, np.array([grid - 1], dtype=np.uint64),
            ])
            cells = np.zeros((k.size, len(tables)), dtype=np.uint64)
            cells[:, t] = k
            raw = RawWords(table, cells, rng)
            got = table.draw(raw, np.empty(cells.shape, dtype=table.guide.dtype))[:, t]
            assert all(words.size == 0 for words in raw.calls)  # every word was read
            assert np.array_equal(got, lo + np.searchsorted(cdf, k * 2.0**-53, side="right"))
            if isinstance(case, Pmf):  # u < 1 never reaches a zero-mass symbol
                assert np.all(case.probs[got] > 0)

    @pytest.mark.parametrize("source", [uniform(2), biuniform_worst_case(2, 0.3)])
    @pytest.mark.parametrize("n", [8, 9])
    def test_pure_top_up_law(self, source, n, monkeypatch):
        # n - 3 sqrt(n) <= 0: no Poisson part, every draw is topped up
        monkeypatch.setattr(montecarlo, "_TALLY_SLACK", 3.0)
        assert _sampler_path(source, n, ()) == "tally" and n <= montecarlo._TALLY_SLACK * math.sqrt(n)
        assert_tally_law(source, n, drawn(_tally_sampler(source, n), np.random.default_rng(n), 40_000))

    @pytest.mark.parametrize("source", [uniform(2), biuniform_worst_case(2, 0.3)])
    def test_binomial_marginal_at_large_mean(self, source):
        # per-symbol Poisson means near 10^4: the CDF window starts far above 0
        n, trials = 20_000, 20_000
        counts = drawn(_tally_sampler(source, n), np.random.default_rng(17), trials)
        k = np.arange(n + 1)
        logfact = np.array([math.lgamma(i + 1) for i in k])
        p = source.probs[0]
        law = np.exp(logfact[n] - logfact - logfact[::-1] + k * math.log(p) + (n - k) * math.log1p(-p))
        x2, df = chi_square(counts[:, 0].astype(float), ExactDistribution(k.astype(float), law))
        assert x2 <= chi_square_bound(df), (x2, df)

    @pytest.mark.parametrize("slack", [montecarlo._TALLY_SLACK, 0.0])
    def test_redrawn_rows_keep_the_law(self, slack, monkeypatch):
        # at slack 0 the Poisson mean is n and about half the rows redraw
        monkeypatch.setattr(montecarlo, "_TALLY_SLACK", slack)
        source, n, trials = biuniform_worst_case(12, 0.3), 60, 40_000
        rows, draw = [], _GuidedCdf.draw
        monkeypatch.setattr(_GuidedCdf, "draw", lambda self, rng, out: rows.append(len(out)) or draw(self, rng, out))
        counts = drawn(_tally_sampler(source, n), np.random.default_rng(7), trials)
        assert sum(rows) > trials  # some rows were drawn twice
        assert np.all(counts.sum(axis=1) == n)
        assert_tally_law(source, n, counts)

    def test_wide_alphabet_row(self):
        m = 65537  # symbols past the uint16 range
        rng = np.random.default_rng(5)
        fps = [sample_occupancy(uniform(m), 4 * m, rng) for _ in range(4)]
        assert all((fp.n, fp.m) == (4 * m, m) for fp in fps)
        phi0 = np.array([fp.level(0) for fp in fps])
        expected = m * (1 - 1 / m) ** (4 * m)
        assert np.all(np.abs(phi0 - expected) <= 5 * math.sqrt(expected))


class TestChunkedCountBlocks:
    """Count-path blocks evaluated chunk by chunk against the values of the
    whole count block drawn from the same key."""

    @pytest.mark.parametrize("source", [uniform(500), biuniform_worst_case(500, 0.35), three_level_pmf(500)])
    @pytest.mark.parametrize("stats", [
        [Coincidence()],  # top 2
        [Coincidence(), PearsonTruncated(), ExtendedCoincidence((0.1, -0.3, 0.7))],  # top 5
        [Coincidence(), Pearson(), ExtendedCoincidence((0.1, -0.3, 0.7)),
         WeightedCoincidence(uniform(500))],  # top n
        [ExtendedCoincidence((0.1, -0.3, 0.7)), Pearson(reference=biuniform_worst_case(500, 0.3))],
    ])
    def test_chunk_values_are_the_block_values(self, source, stats):
        n, m, b = 8000, 500, montecarlo.BLOCK_TRIALS
        tables = [s.table(n, m) for s in stats]
        top = max(t.K for t in tables if t.group is None)
        path, draw = _make_sampler(source, n, tables)
        assert path in ("tally", "counts") and _make_sampler(source, n, ())[0] == path
        counts = drawn(draw, montecarlo._block_rng(5, 0, 0), b)
        if path == "counts":  # one multinomial call per chunk keeps one call's stream
            assert np.array_equal(counts, montecarlo._block_rng(5, 0, 0).multinomial(n, source.probs, size=b))
        rows = montecarlo._TALLY_CELLS // m
        cuts = {min(top, int(counts[lo:lo + rows].max())) for lo in range(0, b, rows)}
        assert -(-b // rows) == 8 and (top < n or len(cuts) > 1), cuts  # chunks cut apart
        # a chunk read after the next one was drawn into its buffer would differ
        got = simulate_statistics(source, stats, n, b, seed=5)
        for stat, x, expected in zip(stats, got, _block_values(tables, path, counts, m)):
            assert np.array_equal(x, expected), stat.name


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
    @pytest.mark.parametrize("n,trials", [(12, -3), (12, 0), (-1, 10)])
    def test_rejects_bad_sizes(self, n, trials):
        with pytest.raises(ValueError, match="n >= 0 and trials >= 1"):
            simulate_statistics(uniform(30), [Coincidence()], n, trials, seed=1)

    def test_zero_draws(self):
        (values,) = simulate_statistics(uniform(30), [Coincidence()], 0, 3, seed=1)
        assert values.tolist() == [Coincidence().from_counts(np.zeros(30, dtype=int))] * 3

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

    def test_fingerprint_row_builds_no_alphabet_sized_array(self):
        # at m = 4e6 one float64 per symbol is 30.5 MiB: the row's sources,
        # samplers and threshold read only each level's probability and size
        tracemalloc.start()
        try:
            row, = sweep(0.45, Coincidence(), equalizing_tau(0.45), (1000,), lambda n: 4_000_000,
                         montecarlo.BLOCK_TRIALS, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.sampler == {"pf": "fingerprint", "pm": "fingerprint"}
        assert peak < 8 << 20

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

    @pytest.mark.parametrize("y", [math.nan, np.array([0.5, math.nan])])
    def test_nan_observation_refused(self, y):
        with pytest.raises(ValueError, match="observation outside"):
            PartitionMap(lambda t: t, 4)(y)

    def test_nan_quantile_refused(self):
        with pytest.raises(ValueError, match="quantile function returned NaN"):
            PartitionMap(lambda t: math.nan if t == 0.5 else t, 4)

    def test_infinite_end_edges_allowed(self):
        # an unbounded law's quantile (here the logistic's) is -inf at 0 and +inf at 1
        def logit(t):
            return -math.inf if t == 0.0 else math.inf if t == 1.0 else math.log(t / (1.0 - t))

        pmap = PartitionMap(logit, 4)
        assert pmap.edges[0] == -math.inf and pmap.edges[-1] == math.inf
        assert pmap(np.array([-1e300, -0.1, 0.1, 1e300, math.inf])).tolist() == [1, 2, 3, 4, 4]


class TestTwoLevelSources:
    """Sources of at most two probability levels, in any symbol order, on
    the direct paths: the tally path's counts come out in symbol order, and
    the fingerprint path draws each level's fingerprint from its symbol
    count in `Pmf.groups`."""

    @pytest.mark.parametrize("path,n,m", [("tally", 60, 13), ("sorted", 30, 51), ("fingerprint", 256, 4096)])
    def test_permuted_law_matches_oracle(self, path, n, m):
        source = permuted_worst_case(m, 0.3, set(range(2, m + 1, 2)))
        stats = [Coincidence(), PearsonTruncated()]
        assert _sampler_path(source, n, [s.table(n, m) for s in stats]) == path
        for stat, x in zip(stats, simulate_statistics(source, stats, n, 40_960, seed=m)):
            x2, df = chi_square(x, exact_distribution(stat, source, n))
            assert x2 <= chi_square_bound(df), (stat.name, x2, df)

    @pytest.mark.parametrize("path,n,m", [("tally", 4000, 500), ("sorted", 200, 1000), ("sorted", 300, 5000)])
    def test_reference_table_means(self, path, n, m):
        # every path draws in symbol order, so a reference-dependent table is
        # read as it stands: read in level order, Pearson's mean at
        # (4000, 500) would sit 19104 standard errors off
        rng = np.random.default_rng(m)
        source, ref = (permuted_worst_case(m, eps, rng.choice(np.arange(1, m + 1), m // 2, replace=False))
                       for eps in (0.35, 0.2))
        stats = [Pearson(reference=ref), WeightedCoincidence(ref)]
        assert _sampler_path(source, n, [s.table(n, m) for s in stats]) == path
        for stat, x in zip(stats, simulate_statistics(source, stats, n, 8192, seed=3)):
            se = x.std() / math.sqrt(x.size)
            assert abs(x.mean() - exact_expectation(stat, source, n)) <= 5 * se, stat.name

    @pytest.mark.parametrize("path,n,m,eps", [
        ("tally", 600, 51, 0.6), ("fingerprint", 256, 4096, 0.9), ("sorted", 30, 4096, 0.9)])
    def test_first_level_mass_past_one(self, path, n, m, eps):
        # the heavy level's float mass passes 1 by an ulp, which rng.binomial
        # refused on every direct path
        source = biuniform_worst_case(m, eps)
        assert float(source.probs[source.probs > 0].sum()) > 1.0
        stats = [Coincidence(), PearsonTruncated()]
        assert _sampler_path(source, n, [s.table(n, m) for s in stats]) == path
        for stat, x in zip(stats, simulate_statistics(source, stats, n, 20_480, seed=n)):
            x2, df = chi_square(x, exact_distribution(stat, source, n))
            assert x2 <= chi_square_bound(df), (stat.name, x2, df)


def _plan(**fields):
    rule = make_threshold(Coincidence(), 10, 20, tau=0.2, eps=0.3)
    return SimPlan(**{"n": 10, "m": 20, "eps": 0.3, "statistic": Coincidence(), "rule": rule,
                      "trials": 100, "seed": 1, **fields})


@pytest.mark.parametrize("call,error,fragment", [
    (lambda: _plan(trials=0), ValueError, "need n >= 1, m >= 2, trials >= 1, streams >= 1"),
    (lambda: _plan(streams=0), ValueError, "need n >= 1, m >= 2, trials >= 1, streams >= 1"),
    (lambda: _plan(alternative=uniform(21)), ValueError, "alternative has 21 symbols, plan has 20"),
    (lambda: sample_occupancy(uniform(4), -1, np.random.default_rng(0)), ValueError,
     "sample size must be >= 0, got -1"),
    (lambda: PartitionMap(lambda u: u, 1), ValueError, "need at least 2 cells, got 1"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
