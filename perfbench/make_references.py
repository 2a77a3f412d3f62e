"""Regenerate perfbench/references.json (run from the repository root).

    python3 perfbench/make_references.py

- sweep: (P_F, P_M) exceed counts per n of the sweep workload's schedule
  at many times its per-op trials, so the workload's check can use the
  reference as a probability with its own standard error.  These stay
  valid when the random streams change.
- exact: the oracle's (P_F, P_M) for each exact case, pinned as printed
  by `gee oracle` (12 significant digits).

This takes several minutes on two cores; it is not part of a benchmark run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gee  # noqa: E402
import workloads  # noqa: E402

# 100x the sweep workload's trials per estimate
TRIALS = 100 * workloads.SWEEP_TRIALS
SEED = 20261017


def sweep_reference() -> dict:
    rows = gee.sweep(
        eps=0.45, statistic=gee.Coincidence(), tau=gee.equalizing_tau(0.45),
        n_list=workloads.SWEEP_N, m_rule=lambda n: math.ceil(n**1.5),
        trials=TRIALS, seed=SEED, streams=2,
    )
    return {
        "trials": TRIALS, "seed": SEED, "rng_algorithm": gee.RNG_ALGORITHM,
        "rows": {str(r.n): {"pf": r.pf.exceed_count, "pm": r.pm.exceed_count}
                 for r in rows},
    }


def exact_reference() -> dict:
    pinned = {}
    for label, stat, n, m, extra in workloads.ORACLE_CASES:
        code, text = workloads.run_cli(workloads.oracle_argv(stat, n, m, extra))
        if code != 0:
            raise SystemExit(f"oracle case {label} failed with exit code {code}")
        out = json.loads(text)
        pinned[label] = {"pf": out["pf"], "pm": out["pm"]}
    return pinned


def main() -> int:
    refs = {"sweep": sweep_reference(), "exact": exact_reference()}
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
