"""The three benchmark workloads: inputs, one timed pass, and output checks.

Each workload repeats a fixed pass of operations ("ops").  An op is one
in-process CLI command (`gee.cli.main`) or one `simulate_statistics`
call.  Ops look their targets up through the module attribute at call
time, so the span wrappers in spans.py see them in a traced run.

Checks compare outputs with references that stay valid when the random
streams change: sampled probabilities are checked within a fixed number
of standard errors of high-trial references, sampled statistics by
pointwise identities and the exact null mean, and exact values against
pinned numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gee
import gee.cli
import gee.montecarlo

REFERENCES = Path(__file__).resolve().parent / "references.json"

# sampled estimates must lie within this many combined standard errors
# of the reference; 6 keeps false failures below 1e-8 per check
SIGMA_BOUND = 6.0
# exact oracle values must match the pinned numbers this closely
EXACT_TOL = 1e-9
# brute-force minima may sit this far below the closed form (grid error)
BRUTEFORCE_SLACK = 0.02
# the coincidence null mean must lie within this many standard errors
MEAN_SE_BOUND = 5.0

WHY = {
    "sweep": (
        "the paper's headline experiment (criterion-8 shape at reduced trials): "
        "sampling-bound, both threads, never touches the oracle"
    ),
    "paired": (
        "five statistics on shared samples, one thread: the statistic kernels "
        "dominate the sparse point and the multinomial draw the dense point"
    ),
    "exact": (
        "exact oracle DP and simplex brute force, one thread, no sampling: "
        "the workload for oracle changes and the control for sampler changes"
    ),
}


@dataclass
class Checks:
    """Counts output checks and keeps the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Op:
    kind: str
    latency_s: float
    trials: int


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process `gee <argv>`; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gee.cli.main(argv)
    return code, buf.getvalue()


def timed(ops: list, kind: str, trials: int, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    ops.append(Op(kind, time.perf_counter() - t0, trials))
    return out


def csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# sweep


SWEEP_N = (1000, 2000, 4000, 8000)
# two 2048-trial blocks per estimate, so both streams get work
SWEEP_TRIALS = 4096
SWEEP_STREAMS = 2


def sweep_argv(seed: int, n_list=SWEEP_N, trials=SWEEP_TRIALS, streams=SWEEP_STREAMS):
    return [
        "sweep", "--stat", "coincidence", "--eps", "0.45", "--equalize",
        "--n", ",".join(str(n) for n in n_list), "--m-rule", "n^1.5",
        "--trials", str(trials), "--seed", str(seed),
        "--streams", str(streams), "--no-timestamp",
    ]


def sigma_check(checks: Checks, what: str, count: int, trials: int,
                ref_count: int, ref_trials: int) -> None:
    p_ref = max(ref_count, 1) / ref_trials
    p_hat = count / trials
    sd = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / trials + 1.0 / ref_trials))
    checks.expect(
        abs(p_hat - p_ref) <= SIGMA_BOUND * sd,
        f"{what}: p_hat {p_hat:.6g} vs reference {p_ref:.6g} (sd {sd:.3g})",
    )


class Sweep:
    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.seeds = random.Random(seed)
        self.seed = seed
        self.ref = load_references()["sweep"]
        # exceed counts per n and estimate, pooled over passes: each pass
        # has its own seed, so the pooled check is as tight as the run is long
        self.counts = {str(n): {"pf": 0, "pm": 0} for n in SWEEP_N}
        self.passes = 0

    def setup_checks(self, checks: Checks) -> None:
        # criterion-10 shape: byte-identical data rows across repeated runs
        # and across stream counts
        one_a, one_b, two = (
            run_cli(sweep_argv(self.seed, (12, 16), 20000, streams)) for streams in (1, 1, 2)
        )
        checks.expect(one_a[0] == 0 and one_a == one_b,
                      "sweep: same seed gave different output")
        checks.expect(two[0] == 0 and csv_rows(one_a[1]) == csv_rows(two[1]),
                      "sweep: streams=1 and streams=2 rows differ")

    def run_pass(self, ops: list, checks: Checks) -> None:
        seed = self.seeds.getrandbits(32)
        trials = 2 * len(SWEEP_N) * SWEEP_TRIALS
        code, text = timed(ops, "sweep", trials, run_cli, sweep_argv(seed))
        if not checks.expect(code == 0, f"sweep seed {seed}: exit code {code}"):
            return
        rows = csv_rows(text)
        if not checks.expect([int(r[0]) for r in rows] == list(SWEEP_N),
                             f"sweep seed {seed}: rows {[r[0] for r in rows]}"):
            return
        for r in rows:
            for col, key in ((3, "pf"), (5, "pm")):
                # p_hat is printed exactly: a count over a power of two
                self.counts[r[0]][key] += round(float(r[col]) * SWEEP_TRIALS)
        self.passes += 1

    def finish(self, checks: Checks) -> None:
        if not self.passes:
            return
        trials = self.passes * SWEEP_TRIALS
        for n, counts in self.counts.items():
            ref = self.ref["rows"][n]
            for key, count in counts.items():
                sigma_check(checks, f"sweep n={n} {key} over {self.passes} passes",
                            count, trials, ref[key], self.ref["trials"])


# ---------------------------------------------------------------------------
# paired


@dataclass(frozen=True)
class Point:
    label: str
    n: int
    m: int
    trials: int


# sparse: sorted-symbol path, statistic kernels dominate;
# dense: 4m <= n, counts path, the multinomial draw dominates
PAIRED_POINTS = (Point("sparse", 2000, 89443, 2048), Point("dense", 4000, 500, 6144))
PAIRED_EPS = 0.35


def paired_statistics(m: int) -> list:
    return [
        gee.Coincidence(), gee.Pearson(), gee.PearsonTruncated(),
        gee.ExtendedCoincidence((0.0, 1.0, 3.0)), gee.WeightedCoincidence(gee.uniform(m)),
    ]


class Paired:
    name = "paired"

    def __init__(self, seed: int) -> None:
        self.seeds = random.Random(seed)
        self.seed = seed
        self.cases = []
        for pt in PAIRED_POINTS:
            stats = paired_statistics(pt.m)
            for source_name, source in (
                ("null", gee.uniform(pt.m)),
                ("alt", gee.biuniform_worst_case(pt.m, PAIRED_EPS)),
            ):
                self.cases.append((pt, source_name, source, stats))
        self.null_sums = {pt.label: [0, 0.0, 0.0] for pt in PAIRED_POINTS}

    def setup_checks(self, checks: Checks) -> None:
        for pt, source_name, source, stats in self.cases[::2]:
            a, b = (
                gee.montecarlo.simulate_statistics(source, stats, pt.n, 256, self.seed)
                for _ in range(2)
            )
            checks.expect(all(np.array_equal(x, y) for x, y in zip(a, b)),
                          f"paired {pt.label}: same seed gave different values")

    def run_pass(self, ops: list, checks: Checks) -> None:
        for pt, source_name, source, stats in self.cases:
            seed = self.seeds.getrandbits(32)
            values = timed(
                ops, f"{pt.label}-{source_name}", pt.trials,
                lambda: gee.montecarlo.simulate_statistics(
                    source, stats, pt.n, pt.trials, seed),
            )
            self._check(pt, source_name, seed, values, checks)

    def _check(self, pt: Point, source_name: str, seed: int, values, checks: Checks):
        what = f"paired {pt.label}-{source_name} seed {seed}"
        coin, pear, trunc, ext, _ = values
        n, m = pt.n, pt.m
        # Pearson = sum c^2 - n^2/m >= 2n - Phi1 - n^2/m, since c^2 >= 2c for c >= 2
        slack = 1e-9 * (n * n / m + 2 * n)
        checks.expect(bool(np.all(pear >= 2 * n + coin - n * n / m - slack)),
                      f"{what}: Pearson below 2n + S* - n^2/m")
        checks.expect(bool(np.all(trunc <= pear + slack)),
                      f"{what}: truncated Pearson above Pearson")
        checks.expect(bool(np.all(ext >= coin)),
                      f"{what}: extended (0,1,3) below coincidence")
        if source_name == "null":
            acc = self.null_sums[pt.label]
            acc[0] += coin.size
            acc[1] += float(coin.sum())
            acc[2] += float(np.dot(coin, coin))

    def finish(self, checks: Checks) -> None:
        for pt in PAIRED_POINTS:
            count, total, total_sq = self.null_sums[pt.label]
            if not count:
                continue
            mean = total / count
            var = max(total_sq / count - mean * mean, 0.0)
            se = math.sqrt(var / count)
            exact = -pt.n * (1.0 - 1.0 / pt.m) ** (pt.n - 1)
            checks.expect(
                abs(mean - exact) <= MEAN_SE_BOUND * se,
                f"paired {pt.label}: coincidence null mean {mean:.6g} vs "
                f"exact {exact:.6g} (se {se:.3g})",
            )


# ---------------------------------------------------------------------------
# exact


EXACT_EPS = "0.45"
EXACT_TAU = "0.365"  # close to equalizing_tau(0.45) = 0.3652...

# (case label, statistic, n, m, extra flags)
ORACLE_CASES = (
    ("coincidence-n100-m1000", "coincidence", 100, 1000, ["--tau", EXACT_TAU]),
    ("coincidence-n200-m2000", "coincidence", 200, 2000, ["--tau", EXACT_TAU]),
    ("pearson-truncated-n100-m1000", "pearson-truncated", 100, 1000, []),
    ("extended-n100-m1000", "extended", 100, 1000,
     ["--weights", "0,1,3", "--tau", EXACT_TAU]),
    ("pearson-n40-m400", "pearson", 40, 400, []),
)
BRUTEFORCE_M = (3, 4, 5)
BRUTEFORCE_MESH = 200


def oracle_argv(stat: str, n: int, m: int, extra: list[str]) -> list[str]:
    return ["oracle", "--stat", stat, "--n", str(n), "--m", str(m),
            "--eps", EXACT_EPS, *extra, "--no-timestamp"]


def bruteforce_argv(m: int, mesh: int = BRUTEFORCE_MESH) -> list[str]:
    return ["worst-case", "--m", str(m), "--eps", EXACT_EPS,
            "--bruteforce", "--mesh", str(mesh), "--no-timestamp"]


def exact_ops() -> list[tuple[str, list[str]]]:
    ops = [(label, oracle_argv(stat, n, m, extra))
           for label, stat, n, m, extra in ORACLE_CASES]
    ops += [(f"bruteforce-m{m}", bruteforce_argv(m)) for m in BRUTEFORCE_M]
    return ops


class Exact:
    name = "exact"

    def __init__(self, seed: int) -> None:
        # the DP is deterministic; the seed only shuffles the op order
        self.order = random.Random(seed)
        self.pinned = load_references()["exact"]
        self.ops = exact_ops()

    def setup_checks(self, checks: Checks) -> None:
        for argv in (oracle_argv("coincidence", 30, 300, ["--tau", EXACT_TAU]),
                     bruteforce_argv(3, 60)):
            first, second = run_cli(argv), run_cli(argv)
            checks.expect(first[0] == 0 and first == second,
                          f"exact {argv[0]}: repeated run gave different output")

    def run_pass(self, ops: list, checks: Checks) -> None:
        order = list(self.ops)
        self.order.shuffle(order)
        for label, argv in order:
            # no Monte Carlo here: each exact command counts as one trial
            code, text = timed(ops, label, 1, run_cli, argv)
            if not checks.expect(code == 0, f"exact {label}: exit code {code}"):
                continue
            out = json.loads(text)
            if label.startswith("bruteforce"):
                value = out["bruteforce"]["min_value"]
                closed = out["chi_square_functional"]
                checks.expect(value >= closed - BRUTEFORCE_SLACK,
                              f"exact {label}: min {value} below closed form {closed}")
                continue
            for key in ("pf", "pm"):
                pinned = self.pinned[label][key]
                checks.expect(abs(out[key] - pinned) <= EXACT_TOL,
                              f"exact {label} {key}: {out[key]!r} vs pinned {pinned!r}")

    def finish(self, checks: Checks) -> None:
        pass


WORKLOADS = {"sweep": Sweep, "paired": Paired, "exact": Exact}
