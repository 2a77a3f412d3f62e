"""Traced run: the per-layer split of all three workloads.

Each workload runs untraced and traced passes in ABBA order.  Traced
passes record spans (spans.py) around calls into gee's public functions;
untraced passes call the originals, so traced minus untraced pass time
is the tracing overhead.  Every op of a traced pass is a direct child of
a `bench.pass` span, whose own self time is the benchmark's code (loop
and output checks), so the self times of a pass add up to its wall time.

Separately, untraced probes time `simulate_statistics` and the
estimators on fixed inputs to split sampling from the statistic kernels
without calling private code: with T1 the time for [Coincidence()] and
T2 for [Coincidence()] * 2 on the same samples, the kernel costs T2 - T1
and the sampler 2*T1 - T2.

Counts labelled `computed_count` are derived from the inputs, not
measured: DP cells are n*m*(value range)*2 laws from each statistic's
per-symbol integer table, and grid points count the sorted simplex grid.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import gee
import gee.montecarlo
from spans import SpanRecorder, wrapped
from workloads import (
    BRUTEFORCE_M, BRUTEFORCE_MESH, ORACLE_CASES, PAIRED_POINTS, SWEEP_N,
    WORKLOADS, Checks, paired_statistics,
)

# untraced + traced passes per workload; exact passes take ~20 s each, so
# exact gets one of each and its overhead figure is dominated by drift
PASSES = {"sweep": 4, "paired": 2, "exact": 1}
PROBE_TRIALS = 4096
PROBE_REPS = 2

# per-symbol integer tables f(c), c = 0..n, for the DP value range
SYMBOL_TABLES = {
    "coincidence": lambda c: -(c == 1),
    "pearson": lambda c: c * c,
    "pearson-truncated": lambda c: (c == 1) + 4 * (c == 2),
    "extended": lambda c: -(c == 1) + {3: 1, 4: 3}.get(c, 0),
}


def dp_cells(stat: str, n: int, m: int) -> int:
    """n * m * (value range) per law, times two laws (null and alternative)."""
    f0 = SYMBOL_TABLES[stat](0)
    slopes = [(SYMBOL_TABLES[stat](c) - f0) / c for c in range(1, n + 1)]
    up = math.ceil(n * max(max(slopes), 0.0))
    lo = math.floor(n * min(min(slopes), 0.0))
    return 2 * n * m * (up - lo + 1)


def grid_points(total: int, parts: int) -> int:
    """Non-increasing tuples of `parts` non-negative ints summing to `total`."""
    # ways[t] = partitions of t into parts of size <= k, for k = 1..parts
    ways = [1] + [0] * total
    for k in range(1, parts + 1):
        for t in range(k, total + 1):
            ways[t] += ways[t - k]
    return ways[total]


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def trace_workload(name: str, seed: int, checks: Checks):
    workload = WORKLOADS[name](seed)
    workload.setup_checks(checks)
    recorder = SpanRecorder()
    untraced, traced, kinds = [], [], []
    def untraced_pass():
        t0 = time.perf_counter()
        workload.run_pass([], checks)
        untraced.append(time.perf_counter() - t0)

    def traced_pass(index):
        ops: list = []
        with wrapped(recorder):
            with recorder.span("bench.pass", workload=name, index=index) as root:
                workload.run_pass(ops, checks)
        traced.append(root[4] - root[3])
        kinds.extend(op.kind for op in ops)

    # untraced first on even passes, traced first on odd ones (ABBA), so
    # a drift in machine speed over the run does not favour either
    for i in range(PASSES[name]):
        if i % 2:
            traced_pass(i)
            untraced_pass()
        else:
            untraced_pass()
            traced_pass(i)
    workload.finish(checks)
    return recorder.records(), untraced, traced, kinds


def group_by_op(spans: list[dict], kinds: list[str]) -> list[tuple[str, dict, list]]:
    """(op kind, op span, descendant spans) for each op, in run order."""
    by_id = {s["id"]: s for s in spans}
    passes = {s["id"] for s in spans if s["name"] == "bench.pass"}
    ops = [s for s in spans if s["parent"] in passes]
    members = defaultdict(list)
    for s in spans:
        node = s
        while node["parent"] is not None and node["parent"] not in passes:
            node = by_id[node["parent"]]
        if node is not s and node["parent"] in passes:
            members[node["id"]].append(s)
    return [(kind, op, members[op["id"]]) for kind, op in zip(kinds, ops)]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def sweep_metrics(spans, kinds) -> dict:
    out = {}
    for est in ("pf", "pm"):
        for n in SWEEP_N:
            rates = [s["trials"] / duration(s) for s in spans
                     if s["name"] == f"montecarlo.estimate_{est}" and s["n"] == n]
            out[f"montecarlo.{est}_trials_per_s.n{n}"] = (_median(rates), "1/s")
    ops = group_by_op(spans, kinds)

    def per_op(select, field):
        return _median([sum(field(s) for s in members if select(s["name"]))
                        for _, _, members in ops])

    out["statistics.make_threshold_s"] = (
        per_op(lambda nm: nm == "statistics.make_threshold", duration), "s")
    out["pmf.self_s.sweep"] = (
        per_op(lambda nm: nm.startswith("pmf."), lambda s: s["self_s"]), "s")
    out["exponents.self_s.sweep"] = (
        per_op(lambda nm: nm.startswith("exponents."), lambda s: s["self_s"]), "s")
    out["cli.self_s.sweep"] = (_median([op["self_s"] for _, op, _ in ops]), "s")
    return out


def paired_metrics(spans, kinds) -> dict:
    out = {}
    for pt in PAIRED_POINTS:
        per_k = [1e6 * duration(s) / s["trials"] for s in spans
                 if s["name"] == "montecarlo.simulate_statistics" and s["n"] == pt.n]
        out[f"montecarlo.paired_ms_per_ktrial.{pt.label}"] = (_median(per_k), "ms/ktrial")
    return out


def exact_metrics(spans, kinds) -> dict:
    out = {}
    ops = group_by_op(spans, kinds)
    for label, stat, n, m, _ in ORACLE_CASES:
        secs = [duration(s) for kind, _, members in ops if kind == label
                for s in members if s["name"] == "oracle.exact_error_probs"]
        cells = dp_cells(stat, n, m)
        out[f"oracle.exact_error_probs_s.{label}"] = (_median(secs), "s")
        out[f"oracle.dp_cells.{label}"] = (cells, "computed_count")
        out[f"oracle.cells_per_s.{label}"] = (cells / _median(secs), "1/s")
    points = total_s = 0.0
    for m in BRUTEFORCE_M:
        secs = [duration(s) for kind, _, members in ops if kind == f"bruteforce-m{m}"
                for s in members if s["name"] == "oracle.worst_case_bruteforce"]
        out[f"oracle.bruteforce_s.m{m}"] = (_median(secs), "s")
        points += grid_points(BRUTEFORCE_MESH, m)
        total_s += _median(secs)
    out["oracle.grid_points"] = (int(points), "computed_count")
    out["oracle.grid_points_per_s"] = (points / total_s, "1/s")
    out["cli.self_s.exact"] = (_median([op["self_s"] for _, op, _ in ops]), "s")
    return out


# ---------------------------------------------------------------------------
# untraced probes


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _alternate(fns: dict, reps: int) -> list[dict]:
    """Mean time of each callable per repetition; one dict per repetition.

    A repetition runs the callables in order and then in reverse order
    (ABBA), and differences are taken within a repetition, so a linear
    drift in machine speed cancels out of them.
    """
    out = []
    for _ in range(reps):
        times = dict.fromkeys(fns, 0.0)
        for key in [*fns, *reversed(fns)]:
            times[key] += _time(fns[key]) / 2
        out.append(times)
    return out


def _median_of(reps: list[dict], combine) -> float:
    return statistics.median(combine(t) for t in reps)


def probe_metrics(seed: int) -> dict:
    out = {}
    sim = gee.montecarlo.simulate_statistics
    coin = gee.Coincidence()
    # (n, m, eps, trials): n1000 gets 4x the trials so each probe lasts
    # about as long as the others and the T2 - T1 difference is resolved
    points = {
        "n1000": (1000, math.ceil(1000**1.5), 0.45, 4 * PROBE_TRIALS),
        "n8000": (8000, math.ceil(8000**1.5), 0.45, PROBE_TRIALS),
        "dense": (4000, 500, 0.35, PROBE_TRIALS),
    }
    for label, (n, m, eps, trials) in points.items():
        scale = 1e6 / trials  # seconds per probe -> ms per 1000 trials
        for source_name, source in (("null", gee.uniform(m)),
                                    ("alt", gee.biuniform_worst_case(m, eps))):
            reps = _alternate({
                1: lambda: sim(source, [coin], n, trials, seed),
                2: lambda: sim(source, [coin, coin], n, trials, seed),
            }, PROBE_REPS)
            out[f"montecarlo.sample_ms_per_ktrial.{source_name}.{label}"] = (
                _median_of(reps, lambda t: 2 * t[1] - t[2]) * scale, "ms/ktrial")
            out[f"montecarlo.coincidence_ms_per_ktrial.{source_name}.{label}"] = (
                _median_of(reps, lambda t: t[2] - t[1]) * scale, "ms/ktrial")

    sparse = PAIRED_POINTS[0]
    source = gee.uniform(sparse.m)
    stats = paired_statistics(sparse.m)
    names = ["pearson", "pearson-truncated", "extended", "weighted"]
    fns = {"coincidence": lambda: sim(source, [coin], sparse.n, PROBE_TRIALS, seed)}
    for name, stat in zip(names, stats[1:]):
        fns[name] = lambda stat=stat: sim(source, [coin, stat], sparse.n, PROBE_TRIALS, seed)
    reps = _alternate(fns, PROBE_REPS)
    for name in names:
        out[f"montecarlo.stat_ms_per_ktrial.{name}.sparse"] = (
            _median_of(reps, lambda t: t[name] - t["coincidence"]) * 1e6 / PROBE_TRIALS,
            "ms/ktrial")

    n = 8000
    m = math.ceil(n**1.5)
    rule = gee.make_threshold(coin, n, m, tau=gee.equalizing_tau(0.45), eps=0.45)

    def estimate(streams):
        plan = gee.SimPlan(n=n, m=m, eps=0.45, statistic=coin, rule=rule,
                           trials=PROBE_TRIALS, seed=seed, streams=streams)
        return lambda: (gee.montecarlo.estimate_pf(plan), gee.montecarlo.estimate_pm(plan))

    reps = _alternate({1: estimate(1), 2: estimate(2)}, PROBE_REPS)
    out["montecarlo.streams_speedup.n8000"] = (_median_of(reps, lambda t: t[1] / t[2]), "x")
    return out


def run(seed: int):
    checks = Checks()
    metrics: dict = {}
    details: dict = {"spans": {}, "passes": {}}
    trials = 0
    extract = {"sweep": sweep_metrics, "paired": paired_metrics, "exact": exact_metrics}
    for name in ("sweep", "paired", "exact"):
        spans, untraced, traced, kinds = trace_workload(name, seed, checks)
        metrics.update(extract[name](spans, kinds))
        bench_self = [s["self_s"] for s in spans if s["name"] == "bench.pass"]
        metrics[f"trace.overhead_s.{name}"] = (_median(traced) - _median(untraced), "s")
        metrics[f"trace.bench_self_s.{name}"] = (_median(bench_self), "s")
        trials += sum(s["trials"] for s in spans
                      if s["name"] in ("montecarlo.estimate_pf", "montecarlo.estimate_pm",
                                       "montecarlo.simulate_statistics"))
        details["spans"][name] = spans
        details["passes"][name] = {"untraced_s": untraced, "traced_s": traced, "ops": kinds}
    metrics["montecarlo.trials"] = (trials, "count")
    metrics.update(probe_metrics(seed))
    return metrics, details, checks
