"""Command-line interface.

Every subcommand writes one result in one envelope, to stdout or --out:
its metadata (tool, version, command, the full parameter set with seed
and RNG algorithm id, and a timestamp that --no-timestamp removes) sits
under the "meta" key of a JSON object, or in "# key: value" lines above
the header of a CSV table (`region`, `sweep`).  Repeated runs with the
same flags are byte-identical apart from the timestamp.  Floats are
printed with 12 significant digits.  Exit codes: 0 success, 2 usage
error, 3 computation error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import re
import sys
import warnings
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
from .oracle import BRUTEFORCE_MAX_M, DEFAULT_CELL_BUDGET, exact_error_probs, worst_case_bruteforce
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
    SeparableStatistic,
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


def _checked(parse: Callable[[str], object], ok: Callable, want: str) -> Callable:
    """Argparse type: parse(s), refused with "<want>, got <s>" unless it
    parses and ok(value) holds."""
    def check(s: str):
        try:
            v = parse(s)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{want}, got {s}")

    return check


def _whole(s: str) -> int:
    """An integer flag value, also in float notation such as 1e6; 1.5 is an error."""
    v = float(s)
    if not v.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {s}")
    return int(v)


def _at_least(k: int) -> Callable[[str], int]:
    """Parser of an integer flag value >= k, in `_whole`'s notation."""
    return _checked(_whole, lambda v: v >= k, f"expected an integer >= {k}")


_eps_arg = _checked(float, lambda v: 0.0 < v < 1.0, "eps must lie in (0, 1)")
_xmax_arg = _checked(float, lambda v: 0.0 < v < math.inf, "xmax must be finite and > 0")


_weights_arg = _checked(
    lambda s: tuple(float(tok) for tok in s.split(",")),
    lambda weights: all(map(math.isfinite, weights)), "weights must be finite numbers",
)
_n_list_arg = _checked(
    lambda s: [_whole(tok) for tok in s.split(",") if tok],
    lambda values: values and min(values) >= 1, "expected integers >= 1, comma-separated",
)


class _MRule:
    """Alphabet growth rule parsed from 'n^A' or 'C*n'; remembers its text."""

    def __init__(self, text: str) -> None:
        match = re.fullmatch(r"n\^([0-9]*\.?[0-9]+)|([0-9]*\.?[0-9]+)\*n", text)
        if match is None:
            raise argparse.ArgumentTypeError(
                f"m rule must look like 'n^1.5' or '3*n', got {text!r}"
            )
        power, factor = match.groups()
        self._power = power is not None
        self._value = float(power or factor)
        self.text = text

    def __call__(self, n: int) -> int:
        return math.ceil(n**self._value if self._power else self._value * n)


_F_BUILTINS = {"kl": f_kl, "chi2": f_chi2, "tv-like": f_tv}


def _default_seed(seed: int | None = None) -> int:
    """The seed from --seed, else from GEE_SEED (0 when unset), read when a
    seeded command runs."""
    if seed is not None:
        return seed
    text = os.environ.get("GEE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"GEE_SEED must be an integer, got {text!r}") from None


def _extended(args, m: int) -> ExtendedCoincidence:
    if args.weights is None:
        raise _UsageError("--weights is required for the extended statistic")
    return ExtendedCoincidence(args.weights)


# --stat name -> the statistic built from (args, m)
_STATISTICS: dict[str, Callable[[argparse.Namespace, int], SeparableStatistic]] = {
    "coincidence": lambda args, m: Coincidence(),
    "pearson": lambda args, m: Pearson(),
    "pearson-truncated": lambda args, m: PearsonTruncated(),
    "extended": _extended,
    "weighted": lambda args, m: WeightedCoincidence(uniform(m)),
}


def _tau(args) -> float | None:
    """The normalized threshold from --tau or --equalize."""
    return equalizing_tau(args.eps) if args.equalize else args.tau


def _rule(args, statistic, n: int, m: int):
    """The rule at (n, m) from --tau-abs, --tau or --equalize.  The library
    judges the threshold; its refusal is a usage error."""
    try:
        if args.tau_abs is not None:
            return absolute_threshold(statistic, n, m, args.tau_abs)
        return make_threshold(statistic, n, m, tau=_tau(args), eps=args.eps)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(args, params: dict, body) -> None:
    """Write a handler's result under its metadata, to stdout or --out: a
    dict body as JSON with the metadata under "meta", a (header, rows,
    extra_meta) body as CSV below "# key: value" lines."""
    meta = {
        "tool": "gee",
        "version": __version__,
        "command": args.command,
        "params": dict(sorted(params.items())),
    }
    if not args.no_timestamp:
        meta["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        )
    if isinstance(body, dict):
        text = json.dumps(_round12({**body, "meta": meta}), indent=2, sort_keys=True) + "\n"
    else:
        header, rows, extra_meta = body
        meta["params"] = " ".join(
            f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in meta["params"].items()
        )
        lines = [f"# {k}: {v}" for k, v in {**meta, **extra_meta}.items()]
        text = "\n".join([*lines, header, *rows]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (params, body) for `_emit`


def _cmd_region(args):
    points = region_curve(args.eps, args.points)
    rows = [f"{_fmt(p.tau)},{_fmt(p.jf)},{_fmt(p.jm)}" for p in points]
    return {"eps": args.eps, "points": args.points}, ("tau,jf,jm", rows, {})


def _cmd_exponents(args):
    tau = _tau(args)
    try:
        jf, jm = jf_star(tau), jm_star(tau, args.eps)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    params = {"eps": args.eps, "tau": tau, "equalize": args.equalize}
    return params, {
        "eps": args.eps,
        "kappa_bar": kappa_bar(args.eps),
        "tau": tau,
        "jf": jf,
        "jm": jm,
    }


def _cmd_worst_case(args):
    q = biuniform_worst_case(args.m, args.eps)
    value = chi_square_functional(q, uniform(args.m))
    params = {"m": args.m, "eps": args.eps}
    body = {
        "pmf": [float(x) for x in q.probs],
        "chi_square_functional": value,
    }
    if args.bruteforce:
        if args.m > BRUTEFORCE_MAX_M:
            raise _UsageError(f"--bruteforce supports 2 <= m <= {BRUTEFORCE_MAX_M}, got {args.m}")
        params["mesh"] = args.mesh
        argmin, min_value = worst_case_bruteforce(args.m, args.eps, args.mesh)
        body["bruteforce"] = {
            "argmin": [float(x) for x in argmin.probs],
            "min_value": min_value,
            "gap": abs(min_value - value),
            "mesh": args.mesh,
        }
    return params, body


def _estimate_payload(est) -> dict:
    return {
        "p_hat": est.p_hat,
        "count": est.exceed_count,
        "trials": est.trials,
        "ci95": est.ci95_halfwidth,
    }


def _cmd_simulate(args):
    statistic = _STATISTICS[args.stat](args, args.m)
    rule = _rule(args, statistic, args.n, args.m)
    plan = SimPlan(
        n=args.n, m=args.m, eps=args.eps, statistic=statistic, rule=rule,
        trials=args.trials, seed=_default_seed(args.seed), streams=args.streams,
    )
    params = {
        "stat": args.stat, "n": args.n, "m": args.m, "eps": args.eps,
        "tau": rule.tau, "trials": args.trials, "seed": plan.seed,
        "streams": args.streams, "rng": RNG_ALGORITHM,
    }
    return params, {
        "r": plan.r,
        "cut": rule.cut,
        "pf": _estimate_payload(estimate_pf(plan)),
        "pm": _estimate_payload(estimate_pm(plan)),
        "sampler": plan.sampler,
    }


def _cmd_sweep(args):
    statistic = _STATISTICS[args.stat](args, 0)  # sweep statistics carry no reference pmf
    # m grows with n, so the rule at the smallest n meets a bad m first;
    # sweep itself warns of a clamped tau, once
    n = min(args.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _rule(args, statistic, n, args.m_rule(n))
    seed = _default_seed(args.seed)
    rows = sweep(
        eps=args.eps,
        statistic=statistic,
        tau=_tau(args),
        n_list=args.n,
        m_rule=args.m_rule,
        trials=args.trials,
        seed=seed,
        streams=args.streams,
    )
    params = {
        "stat": args.stat, "eps": args.eps,
        "tau": "equalize" if args.equalize else args.tau,
        "n": ",".join(str(v) for v in sorted(args.n)),
        "m_rule": args.m_rule.text, "trials": args.trials,
        "seed": seed, "streams": args.streams, "rng": RNG_ALGORITHM,
    }
    sampler = " ".join(
        f"n={row.n}:pf={row.sampler['pf']},pm={row.sampler['pm']}" for row in rows
    )
    lines = [
        f"{row.n},{row.m},{_fmt(row.r)},{_fmt(row.pf.p_hat)},{_fmt(row.pf.ci95_halfwidth)},"
        f"{_fmt(row.pm.p_hat)},{_fmt(row.pm.ci95_halfwidth)},{';'.join(row.flags)}"
        for row in rows
    ]
    return params, ("n,m,r,pf_hat,pf_ci,pm_hat,pm_ci,flags", lines, {"sampler": sampler})


def _cmd_oracle(args):
    statistic = _STATISTICS[args.stat](args, args.m)
    rule = _rule(args, statistic, args.n, args.m)
    null = uniform(args.m)
    alt = biuniform_worst_case(args.m, args.eps) if args.eps is not None else null
    pf, pm = exact_error_probs(statistic, rule, null, alt, args.n, budget=args.budget)
    params = {
        "stat": args.stat, "n": args.n, "m": args.m,
        "eps": args.eps, "tau": args.tau, "tau_abs": args.tau_abs,
        "budget": args.budget,
    }
    return params, {
        "cut": rule.cut,
        "pf": pf,
        "pm": pm if args.eps is not None else None,
    }


def _cmd_fdiv_check(args):
    f = _F_BUILTINS[args.f]
    quad_grid = np.linspace(0.0, args.xmax, args.points)
    report = check_fdiv_conditions(f, quad_grid=quad_grid)
    params = {"f": args.f, "xmax": args.xmax, "points": args.points}
    return params, {
        "f": args.f,
        "cond1": report.gap_holds,
        "witness": report.gap_witness,
        "cond2": report.quad_holds,
        "alpha": report.quad_alpha,
    }


# ---------------------------------------------------------------------------
# parser


def _add_statistic(sub, names: list[str]) -> None:
    sub.add_argument("--stat", choices=names, default="coincidence")
    sub.add_argument("--weights", type=_weights_arg, help="extended-statistic weights v2,v3,...")


def _add_threshold(sub, required: bool = False, absolute: bool = False) -> None:
    """--tau, exclusive with --tau-abs if absolute, else with --equalize.  A
    command whose threshold is optional builds its rule with `_rule`, which
    reads both, so the one not declared reads as unset."""
    choice = sub.add_mutually_exclusive_group(required=required)
    choice.add_argument("--tau", type=float, help="normalized threshold")
    if absolute:
        choice.add_argument("--tau-abs", dest="tau_abs", type=float,
                            help="absolute cut in statistic units")
    else:
        choice.add_argument(
            "--equalize", action="store_true",
            help="use the threshold equalizing the two exponents",
        )
    if not required:
        sub.set_defaults(tau_abs=None, equalize=False)


def _add_runs(sub, **trials) -> None:
    """--trials (its default, or required=True, passed in `trials`), --seed and --streams."""
    sub.add_argument("--trials", type=_at_least(1), **trials)
    sub.add_argument("--seed", type=int, help="default: GEE_SEED, else 0")
    sub.add_argument("--streams", type=_at_least(1), default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gee",
        description="Small-sample universal hypothesis testing toolkit",
    )
    parser.add_argument("--version", action="version", version=f"gee {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output file (default: stdout)")
    output.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the timestamp from output metadata",
    )

    def command(name: str, func: Callable, summary: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=summary, parents=[output])
        sub.set_defaults(func=func)
        return sub

    region = command("region", _cmd_region, "achievable-region boundary as CSV")
    region.add_argument("--eps", type=_eps_arg, required=True)
    region.add_argument("--points", type=_at_least(2), required=True)

    expo = command("exponents", _cmd_exponents, "exponent pair at one threshold")
    expo.add_argument("--eps", type=_eps_arg, required=True)
    _add_threshold(expo, required=True)

    worst = command("worst-case", _cmd_worst_case, "worst-case bi-uniform alternative")
    worst.add_argument("--m", type=_at_least(2), required=True)
    worst.add_argument("--eps", type=_eps_arg, required=True)
    worst.add_argument("--bruteforce", action="store_true")
    worst.add_argument("--mesh", type=_at_least(1), default=200)

    sim = command("simulate", _cmd_simulate, "Monte Carlo error probabilities")
    _add_statistic(sim, list(_STATISTICS))
    sim.add_argument("--n", type=_at_least(1), required=True)
    sim.add_argument("--m", type=_at_least(2), required=True)
    sim.add_argument("--eps", type=_eps_arg, required=True)
    _add_threshold(sim)
    _add_runs(sim, default=100000)

    swp = command("sweep", _cmd_sweep, "(P_F, P_M) along an (n, m) schedule")
    _add_statistic(swp, [name for name in _STATISTICS if name != "weighted"])
    swp.add_argument("--eps", type=_eps_arg, required=True)
    _add_threshold(swp)
    swp.add_argument("--n", type=_n_list_arg, required=True,
                     help="comma-separated sample sizes")
    swp.add_argument("--m-rule", dest="m_rule", type=_MRule, required=True,
                     help="alphabet growth rule, e.g. n^1.5 or 3*n")
    _add_runs(swp, required=True)

    orc = command("oracle", _cmd_oracle, "exact error probabilities (small n, m)")
    _add_statistic(orc, list(_STATISTICS))
    orc.add_argument("--n", type=_at_least(1), required=True)
    orc.add_argument("--m", type=_at_least(2), required=True)
    orc.add_argument("--eps", type=_eps_arg)
    _add_threshold(orc, absolute=True)
    orc.add_argument("--budget", type=_at_least(1), default=DEFAULT_CELL_BUDGET,
                     help="transform-cell budget: refuse a law whose transform grid, "
                          "charged max(4, symbol groups) times, has more cells")

    fdiv = command("fdiv-check", _cmd_fdiv_check, "grid certificates for an f-divergence")
    fdiv.add_argument("--f", choices=sorted(_F_BUILTINS), required=True)
    fdiv.add_argument("--xmax", type=_xmax_arg, default=100.0)
    fdiv.add_argument("--points", type=_at_least(2), default=4001)

    return parser


# one parser per process: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(args, *args.func(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
