#!/usr/bin/env python3
"""Empirical decay slopes along a sparse-regime schedule.

Along m = ceil(n^1.5) the normalization r = n^2/m grows like sqrt(n);
regressing -log(P_hat) on r estimates the generalized error exponent.
Beside each Monte Carlo row the exact oracle's P_F and P_M (under 0.05 s
a row) show the estimates' sampling noise, and the slope fitted to them
shows the schedule's own finite-size bias.  This demo runs a reduced
schedule that finishes in a few seconds; the full-scale experiment (n up
to 8000, 1e6 trials per point) lives in the acceptance suite as a slow
test.
"""

import math

import gee


def main() -> None:
    eps = 0.45
    tau = gee.equalizing_tau(eps)
    predicted = gee.jf_star(tau)
    print(f"eps={eps}: equalizing tau* = {tau:.6f}, predicted exponent {predicted:.6f}")

    stat = gee.Coincidence()
    rows = gee.sweep(
        eps=eps,
        statistic=stat,
        tau=tau,
        n_list=(250, 500, 1000, 2000),
        m_rule=lambda n: math.ceil(n**1.5),
        trials=200_000,
        seed=101,
        streams=2,
    )
    exact = []
    for row in rows:
        rule = gee.make_threshold(stat, row.n, row.m, tau=tau, eps=eps)
        exact.append(gee.exact_error_probs(stat, rule, gee.uniform(row.m),
                                           gee.biuniform_worst_case(row.m, eps), row.n))
    print(f"{'n':>6} {'m':>8} {'r':>8} {'pf_hat':>10} {'pf_exact':>10} "
          f"{'pm_hat':>10} {'pm_exact':>10}  flags")
    for row, (pf, pm) in zip(rows, exact):
        print(f"{row.n:6d} {row.m:8d} {row.r:8.3f} {row.pf.p_hat:10.6f} {pf:10.6f} "
              f"{row.pm.p_hat:10.6f} {pm:10.6f}  {';'.join(row.flags)}")

    print()
    for name, points in (
        ("pf", [(row.r, row.pf.p_hat) for row in rows]),
        ("pf exact", [(row.r, pf) for row, (pf, _) in zip(rows, exact)]),
        ("pm", [(row.r, row.pm.p_hat) for row in rows]),
        ("pm exact", [(row.r, pm) for row, (_, pm) in zip(rows, exact)]),
    ):
        slope, _ = gee.estimate_exponent(points)
        print(f"slope of -log({name}) vs r: {slope:.6f}  ({slope / predicted:.2f}x predicted)")
    print()
    print("the fitted slope sits above the first-order prediction at these")
    print("sizes because the subexponential prefactor (~ log(r)/2) has not")
    print("died off yet; it tightens as n grows.")


if __name__ == "__main__":
    main()
