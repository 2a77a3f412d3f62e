"""Command-line interface.

Every subcommand emits reproducible CSV or JSON: outputs embed the full
parameter set, seed, and RNG algorithm id, and repeated runs with the
same flags are byte-identical apart from the timestamp line (which
--no-timestamp removes).  Floats are printed with 12 significant
digits.  Exit codes: 0 success, 2 usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
from typing import Callable

import numpy as np

from . import __version__
from .exponents import (
    equalizing_tau,
    jf_star,
    jm_star,
    kappa_bar,
    region_curve,
)
from .montecarlo import (
    RNG_ALGORITHM,
    SimPlan,
    estimate_pf,
    estimate_pm,
    sweep,
)
from .oracle import BRUTEFORCE_MAX_M, exact_error_probs, worst_case_bruteforce
from .pmf import (
    biuniform_worst_case,
    check_fdiv_conditions,
    chi_square_functional,
    f_chi2,
    f_kl,
    f_tv,
    uniform,
)
from .statistics import (
    Coincidence,
    ExtendedCoincidence,
    Pearson,
    PearsonTruncated,
    WeightedCoincidence,
    absolute_threshold,
    make_threshold,
)

__all__ = ["main"]


class _UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _eps_arg(s: str) -> float:
    v = float(s)
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError(f"eps must lie in (0, 1), got {s}")
    return v


def _points_arg(s: str) -> int:
    v = int(s)
    if v < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 points, got {s}")
    return v


def _whole(s: str) -> int:
    """An integer flag value, also in float notation such as 1e6; 1.5 is an error."""
    v = float(s)
    if not v.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {s}")
    return int(v)


def _positive_int(s: str) -> int:
    v = _whole(s)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s}")
    return v


def _tau_arg(s: str) -> float:
    v = float(s)
    if not v >= 0.0:
        raise argparse.ArgumentTypeError(f"tau must be >= 0, got {s}")
    return v


def _alphabet_arg(s: str) -> int:
    v = _whole(s)
    if v < 2:
        raise argparse.ArgumentTypeError(f"the alphabet needs at least 2 symbols, got {s}")
    return v


def _n_list_arg(s: str) -> list[int]:
    try:
        values = [_whole(tok) for tok in s.split(",") if tok]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad n list {s!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad n list {s!r}")
    return values


class _MRule:
    """Alphabet growth rule parsed from 'n^A' or 'C*n'; remembers its text."""

    def __init__(self, text: str) -> None:
        power = re.fullmatch(r"n\^([0-9]*\.?[0-9]+)", text)
        linear = re.fullmatch(r"([0-9]*\.?[0-9]+)\*n", text)
        if power:
            a = float(power.group(1))
            self._fn: Callable[[int], int] = lambda n: math.ceil(n**a)
        elif linear:
            c = float(linear.group(1))
            self._fn = lambda n: math.ceil(c * n)
        else:
            raise argparse.ArgumentTypeError(
                f"m rule must look like 'n^1.5' or '3*n', got {text!r}"
            )
        self.text = text

    def __call__(self, n: int) -> int:
        return self._fn(n)


_F_BUILTINS = {"kl": f_kl, "chi2": f_chi2, "tv-like": f_tv}


def _default_seed() -> int:
    return int(os.environ.get("GEE_SEED", "0"))


def _make_statistic(args, m: int):
    name = args.stat
    if name == "coincidence":
        return Coincidence()
    if name == "pearson":
        return Pearson()
    if name == "pearson-truncated":
        return PearsonTruncated()
    if name == "weighted":
        return WeightedCoincidence(uniform(m))
    if name == "extended":
        if not args.weights:
            raise _UsageError("--weights is required for the extended statistic")
        weights = tuple(float(tok) for tok in args.weights.split(","))
        return ExtendedCoincidence(weights)
    raise _UsageError(f"unknown statistic {name!r}")


def _resolve_tau(args, statistic) -> float | None:
    """The tau of the statistic's canonical rule, from --tau or --equalize;
    the Pearson-family rule takes --eps and no tau."""
    equalize = getattr(args, "equalize", False)
    if statistic.rule_kind == "pearson":
        if args.tau is not None or equalize:
            raise _UsageError(
                f"the {statistic.name} rule is set by --eps alone; drop --tau/--equalize"
            )
        if args.eps is None:
            raise _UsageError("the Pearson-family rule needs --eps")
        return None
    if equalize:
        return equalizing_tau(args.eps)
    if args.tau is None:
        other = "--equalize" if hasattr(args, "equalize") else "--tau-abs"
        raise _UsageError(f"need --tau or {other} for this statistic")
    return args.tau


def _rule(args, statistic):
    """The canonical rule at (--n, --m); simulate and oracle share it."""
    tau = _resolve_tau(args, statistic)
    return make_threshold(statistic, args.n, args.m, tau=tau, eps=args.eps)


def _metadata(args, command: str, params: dict) -> dict:
    meta = {
        "tool": "gee",
        "version": __version__,
        "command": command,
        "params": {k: v for k, v in sorted(params.items())},
    }
    if not getattr(args, "no_timestamp", False):
        meta["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        )
    return meta


def _emit_text(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit_text(args, json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")


def _csv_text(meta: dict, header: str, rows: list[str]) -> str:
    lines = [f"# {k}: {v}" for k, v in _flatten_meta(meta)]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _flatten_meta(meta: dict) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for k, v in meta.items():
        if k == "params":
            echo = " ".join(
                f"{pk}={_fmt(pv) if isinstance(pv, float) else pv}"
                for pk, pv in v.items()
            )
            out.append(("params", echo))
        else:
            out.append((k, str(v)))
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_region(args) -> int:
    points = region_curve(args.eps, args.points)
    meta = _metadata(args, "region", {"eps": args.eps, "points": args.points})
    rows = [f"{_fmt(p.tau)},{_fmt(p.jf)},{_fmt(p.jm)}" for p in points]
    _emit_text(args, _csv_text(meta, "tau,jf,jm", rows))
    return 0


def _cmd_exponents(args) -> int:
    kb = kappa_bar(args.eps)
    tau = equalizing_tau(args.eps) if args.equalize else args.tau
    if not 0.0 <= tau <= kb - 1.0:
        raise _UsageError(f"tau must lie in [0, {kb - 1.0}], got {tau}")
    payload = {
        "meta": _metadata(
            args, "exponents", {"eps": args.eps, "tau": tau, "equalize": args.equalize}
        ),
        "eps": args.eps,
        "kappa_bar": kb,
        "tau": tau,
        "jf": jf_star(tau),
        "jm": jm_star(tau, args.eps),
    }
    _emit_json(args, payload)
    return 0


def _cmd_worst_case(args) -> int:
    q = biuniform_worst_case(args.m, args.eps)
    value = chi_square_functional(q, uniform(args.m))
    params = {"m": args.m, "eps": args.eps}
    payload = {
        "pmf": [float(x) for x in q.probs],
        "chi_square_functional": value,
    }
    if args.bruteforce:
        if args.m > BRUTEFORCE_MAX_M:
            raise _UsageError(f"--bruteforce supports 2 <= m <= {BRUTEFORCE_MAX_M}, got {args.m}")
        params["mesh"] = args.mesh
        argmin, min_value = worst_case_bruteforce(args.m, args.eps, args.mesh)
        payload["bruteforce"] = {
            "argmin": [float(x) for x in argmin.probs],
            "min_value": min_value,
            "gap": abs(min_value - value),
            "mesh": args.mesh,
        }
    payload["meta"] = _metadata(args, "worst-case", params)
    _emit_json(args, payload)
    return 0


def _estimate_payload(est) -> dict:
    return {
        "p_hat": est.p_hat,
        "count": est.exceed_count,
        "trials": est.trials,
        "ci95": est.ci95_halfwidth,
    }


def _cmd_simulate(args) -> int:
    statistic = _make_statistic(args, args.m)
    rule = _rule(args, statistic)
    plan = SimPlan(
        n=args.n, m=args.m, eps=args.eps, statistic=statistic, rule=rule,
        trials=args.trials, seed=args.seed, streams=args.streams,
    )
    params = {
        "stat": args.stat, "n": args.n, "m": args.m, "eps": args.eps,
        "tau": rule.tau, "trials": args.trials, "seed": args.seed,
        "streams": args.streams, "rng": RNG_ALGORITHM,
    }
    payload = {
        "meta": _metadata(args, "simulate", params),
        "r": plan.r,
        "cut": rule.cut,
        "pf": _estimate_payload(estimate_pf(plan)),
        "pm": _estimate_payload(estimate_pm(plan)),
        "sampler": plan.sampler,
    }
    _emit_json(args, payload)
    return 0


def _cmd_sweep(args) -> int:
    statistic = _make_statistic(args, 0)  # sweep statistics carry no reference pmf
    tau = _resolve_tau(args, statistic)
    small = [n for n in args.n if args.m_rule(n) < 2]
    if small:
        raise _UsageError(
            f"--m-rule {args.m_rule.text} gives m < 2 at n = {min(small)}; need m >= 2"
        )
    rows = sweep(
        eps=args.eps,
        statistic=statistic,
        tau=tau,
        n_list=args.n,
        m_rule=args.m_rule,
        trials=args.trials,
        seed=args.seed,
        streams=args.streams,
    )
    params = {
        "stat": args.stat, "eps": args.eps,
        "tau": "equalize" if args.equalize else tau,
        "n": ",".join(str(v) for v in sorted(args.n)),
        "m_rule": args.m_rule.text, "trials": args.trials,
        "seed": args.seed, "streams": args.streams, "rng": RNG_ALGORITHM,
    }
    meta = _metadata(args, "sweep", params)
    meta["sampler"] = " ".join(
        f"n={row.n}:pf={row.sampler['pf']},pm={row.sampler['pm']}" for row in rows
    )
    lines = [
        f"{row.n},{row.m},{_fmt(row.r)},{_fmt(row.pf.p_hat)},{_fmt(row.pf.ci95_halfwidth)},"
        f"{_fmt(row.pm.p_hat)},{_fmt(row.pm.ci95_halfwidth)},{';'.join(row.flags)}"
        for row in rows
    ]
    _emit_text(
        args, _csv_text(meta, "n,m,r,pf_hat,pf_ci,pm_hat,pm_ci,flags", lines)
    )
    return 0


def _cmd_oracle(args) -> int:
    statistic = _make_statistic(args, args.m)
    if args.tau_abs is not None:
        rule = absolute_threshold(statistic, args.n, args.m, args.tau_abs)
    else:
        rule = _rule(args, statistic)
    null = uniform(args.m)
    alt = biuniform_worst_case(args.m, args.eps) if args.eps is not None else null
    pf, pm = exact_error_probs(statistic, rule, null, alt, args.n, budget=args.budget)
    params = {
        "stat": args.stat, "n": args.n, "m": args.m,
        "eps": args.eps, "tau": args.tau, "tau_abs": args.tau_abs,
        "budget": args.budget,
    }
    payload = {
        "meta": _metadata(args, "oracle", params),
        "cut": rule.cut,
        "pf": pf,
        "pm": pm if args.eps is not None else None,
    }
    _emit_json(args, payload)
    return 0


def _cmd_fdiv_check(args) -> int:
    f = _F_BUILTINS[args.f]
    quad_grid = np.linspace(0.0, args.xmax, args.points)
    report = check_fdiv_conditions(f, quad_grid=quad_grid)
    payload = {
        "meta": _metadata(
            args, "fdiv-check", {"f": args.f, "xmax": args.xmax, "points": args.points}
        ),
        "f": args.f,
        "cond1": report.gap_holds,
        "witness": report.gap_witness,
        "cond2": report.quad_holds,
        "alpha": report.quad_alpha,
    }
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub) -> None:
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the timestamp from output metadata",
    )


def _add_tau_group(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--tau", type=_tau_arg, help="normalized threshold")
    group.add_argument(
        "--equalize", action="store_true",
        help="use the threshold equalizing the two exponents",
    )


_STAT_NAMES = ["coincidence", "pearson", "pearson-truncated", "extended", "weighted"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gee",
        description="Small-sample universal hypothesis testing toolkit",
    )
    parser.add_argument("--version", action="version", version=f"gee {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    region = subs.add_parser("region", help="achievable-region boundary as CSV")
    region.add_argument("--eps", type=_eps_arg, required=True)
    region.add_argument("--points", type=_points_arg, required=True)
    _add_common(region)
    region.set_defaults(func=_cmd_region)

    expo = subs.add_parser("exponents", help="exponent pair at one threshold")
    expo.add_argument("--eps", type=_eps_arg, required=True)
    tau_group = expo.add_mutually_exclusive_group(required=True)
    tau_group.add_argument("--tau", type=float)
    tau_group.add_argument("--equalize", action="store_true")
    _add_common(expo)
    expo.set_defaults(func=_cmd_exponents)

    worst = subs.add_parser("worst-case", help="worst-case bi-uniform alternative")
    worst.add_argument("--m", type=_alphabet_arg, required=True)
    worst.add_argument("--eps", type=_eps_arg, required=True)
    worst.add_argument("--bruteforce", action="store_true")
    worst.add_argument("--mesh", type=_positive_int, default=200)
    _add_common(worst)
    worst.set_defaults(func=_cmd_worst_case)

    sim = subs.add_parser("simulate", help="Monte Carlo error probabilities")
    sim.add_argument("--stat", choices=_STAT_NAMES, default="coincidence")
    sim.add_argument("--weights", help="extended-statistic weights v2,v3,...")
    sim.add_argument("--n", type=_positive_int, required=True)
    sim.add_argument("--m", type=_alphabet_arg, required=True)
    sim.add_argument("--eps", type=_eps_arg, required=True)
    _add_tau_group(sim)
    sim.add_argument("--trials", type=_positive_int, default=100000)
    sim.add_argument("--seed", type=int, default=_default_seed())
    sim.add_argument("--streams", type=_positive_int, default=1)
    _add_common(sim)
    sim.set_defaults(func=_cmd_simulate)

    swp = subs.add_parser("sweep", help="(P_F, P_M) along an (n, m) schedule")
    swp.add_argument(
        "--stat", choices=["coincidence", "pearson", "pearson-truncated", "extended"],
        default="coincidence",
    )
    swp.add_argument("--weights", help="extended-statistic weights v2,v3,...")
    swp.add_argument("--eps", type=_eps_arg, required=True)
    _add_tau_group(swp)
    swp.add_argument("--n", type=_n_list_arg, required=True,
                     help="comma-separated sample sizes")
    swp.add_argument("--m-rule", dest="m_rule", type=_MRule, required=True,
                     help="alphabet growth rule, e.g. n^1.5 or 3*n")
    swp.add_argument("--trials", type=_positive_int, required=True)
    swp.add_argument("--seed", type=int, default=_default_seed())
    swp.add_argument("--streams", type=_positive_int, default=1)
    _add_common(swp)
    swp.set_defaults(func=_cmd_sweep)

    orc = subs.add_parser("oracle", help="exact error probabilities (small n, m)")
    orc.add_argument("--stat", choices=_STAT_NAMES, default="coincidence")
    orc.add_argument("--weights", help="extended-statistic weights v2,v3,...")
    orc.add_argument("--n", type=_positive_int, required=True)
    orc.add_argument("--m", type=_alphabet_arg, required=True)
    orc.add_argument("--eps", type=_eps_arg)
    rule_group = orc.add_mutually_exclusive_group()
    rule_group.add_argument("--tau", type=_tau_arg, help="normalized threshold")
    rule_group.add_argument("--tau-abs", dest="tau_abs", type=float,
                            help="absolute cut in statistic units")
    orc.add_argument("--budget", type=_positive_int, default=10**8,
                     help="dynamic-program cell budget")
    _add_common(orc)
    orc.set_defaults(func=_cmd_oracle)

    fdiv = subs.add_parser("fdiv-check", help="grid certificates for an f-divergence")
    fdiv.add_argument("--f", choices=sorted(_F_BUILTINS), required=True)
    fdiv.add_argument("--xmax", type=float, default=100.0)
    fdiv.add_argument("--points", type=_points_arg, default=4001)
    _add_common(fdiv)
    fdiv.set_defaults(func=_cmd_fdiv_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
