"""gee benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,paired,exact} --seed N \
        --seconds S --trace {0,1}

The program is imported from ./src of the checkout, never from an
installed copy.  With --trace 0 the run sets up (import gee, build inputs,
determinism checks; repeated in fresh processes and reported as a
median), then repeats the workload's fixed pass until S seconds have
passed and reports the end-to-end metrics.  With --trace 1 it measures
the per-layer split of all three workloads (see layers.py).  Every output
is checked; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A record with machine facts,
per-op details and, for traced runs, every span is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is measured this many times, each in a fresh interpreter
SETUP_SAMPLES = 15
# an op-latency tail needs at least this many ops beyond it
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sweep", "paired", "exact"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up samples)")
    return parser.parse_args(argv)


def import_gee():
    """Import gee from ./src of this checkout; refuse any other copy."""
    if not (SRC / "gee" / "__init__.py").is_file():
        raise SystemExit(f"error: no gee sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gee

    if Path(gee.__file__).resolve().parent != (SRC / "gee").resolve():
        raise SystemExit(f"error: imported gee from {gee.__file__}, not {SRC}")
    return gee


def set_up(args):
    """Import gee, build the workload's inputs and run its set-up checks."""
    t0 = time.perf_counter()
    import_gee()
    import workloads

    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup_checks(checks)
    return time.perf_counter() - t0, workload, checks


def setup_sample(args) -> dict:
    """One set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND ops beyond it.

    With fewer than 2*TAIL_BEYOND ops that percentile would sit at or
    below the median, so the tail is the maximum (percentile 100).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        tail, pct = xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "tail_pct": pct, "ops": n}


def run_passes(workload, seconds: float, checks) -> tuple[list, list]:
    """Repeat whole passes until `seconds` have passed; returns (ops, pass times)."""
    ops: list = []
    passes: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            workload.run_pass(ops, checks)
        except Exception as exc:  # an op that raises is a failed check
            checks.expect(False, f"{workload.name} pass raised {exc!r}")
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            break
    workload.finish(checks)
    return ops, passes


def end_to_end(args) -> tuple[dict, dict, object]:
    setup_main, workload, checks = set_up(args)
    samples = [setup_main]
    for _ in range(SETUP_SAMPLES - 1):
        sample = setup_sample(args)
        samples.append(sample["setup_s"])
        checks.attempted += sample["attempted"]
        checks.failed += sample["failed"]
        checks.failures.extend(sample["failures"])

    ops, passes = run_passes(workload, args.seconds, checks)
    lat = latency_summary([op.latency_s for op in ops])
    trials = sum(op.trials for op in ops)
    busy = sum(passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "trials_per_s": (trials / busy, "1/s"),
        "op_p50_s": (lat["p50"], "s"),
        "op_tail_s": (lat["tail"], "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    details = {
        "setup_samples_s": samples,
        "pass_s": passes,
        "op_tail_pct": lat["tail_pct"],
        "op_count": lat["ops"],
        "trials": trials,
        "ops": [[op.kind, op.latency_s] for op in ops],
    }
    return metrics, details, checks


def git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gee").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def facts(args) -> dict:
    import numpy
    import gee
    import workloads

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rng_algorithm": gee.RNG_ALGORITHM,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # one process, at most two threads (the sweep's two streams); set
    # before numpy is imported, and inherited by the set-up samples
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.setup_only:
        seconds, _, checks = set_up(args)
        print(json.dumps({"setup_s": seconds, "attempted": checks.attempted,
                          "failed": checks.failed, "failures": checks.failures}))
        return 0

    if args.trace:
        import_gee()
        import layers

        metrics, details, checks = layers.run(args.seed)
    else:
        metrics, details, checks = end_to_end(args)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"facts": facts(args), **result, "failures": checks.failures,
              "details": details}
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("facts " + json.dumps(record["facts"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':52s} {checks.failed / max(checks.attempted, 1):14.6g} "
          f"({checks.failed}/{checks.attempted} checks)")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
