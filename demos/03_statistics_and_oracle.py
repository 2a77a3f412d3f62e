#!/usr/bin/env python3
"""Separable statistics and their exact finite-sample laws.

Every test here is a separable statistic: a sum over symbols of a
function of that symbol's occurrence count, hence a function of the
occupancy fingerprint (Phi_l = number of symbols seen exactly l times).
The oracle computes exact laws by transforming each symbol group's
Poisson (count, statistic value) array once, summing multiplicity times
the log of each spectrum, and reading count n off one exp of the sum.
"""

import numpy as np

import gee


def main() -> None:
    counts = [2, 1, 1, 0]
    fp = gee.occupancy(counts)
    print(f"counts {counts} -> fingerprint phi = {fp.phi} (n={fp.n}, m={fp.m})")
    stats = {
        "coincidence": gee.Coincidence(),
        "pearson": gee.Pearson(),
        "pearson-truncated": gee.PearsonTruncated(),
        "extended (v3=2)": gee.ExtendedCoincidence(weights=(0, 2)),
        "weighted": gee.WeightedCoincidence(gee.uniform(4)),
    }
    for name, stat in stats.items():
        print(f"  {name:18} = {stat.from_counts(counts):8.4f}")
    print()

    print("exact law of the coincidence statistic, n=3 draws on 3 symbols:")
    dist = gee.exact_distribution(gee.Coincidence(), gee.uniform(3), 3)
    for v, pr in zip(dist.support, dist.probs):
        print(f"  P(S = {v:4.0f}) = {pr:.6f}")
    print(f"  mean {dist.mean():.6f}  == closed form "
          f"{-3 * (1 - 1 / 3) ** 2:.6f}")
    print()

    print("exact error probabilities of the coincidence test (n=12, m=30):")
    n, m, eps, tau = 12, 30, 0.3, 0.2
    stat = gee.Coincidence()
    rule = gee.make_threshold(stat, n, m, tau=tau)
    pf, pm = gee.exact_error_probs(
        stat, rule, gee.uniform(m), gee.biuniform_worst_case(m, eps), n
    )
    print(f"  rule: reject iff S >= {rule.cut:.4f}   (tau={tau}, eps={eps})")
    print(f"  P_F = {pf:.6f}   P_M = {pm:.6f}")
    print()

    print("second-order moment expansion vs exact mean (coincidence, uniform):")
    for n in (50, 100, 200):
        m = int(np.ceil(n**1.5))
        mean_approx, var_approx = gee.asymptotic_moments(
            gee.Coincidence(), gee.uniform(m), n
        )
        exact = gee.exact_expectation(gee.Coincidence(), gee.uniform(m), n)
        print(f"  n={n:4} m={m:6}: approx {mean_approx:12.6f}  exact {exact:12.6f}"
              f"  |diff|/(n^3/m^2) = {abs(mean_approx - exact) / (n**3 / m**2):.3f}"
              f"  var_approx {var_approx:.3f}")


if __name__ == "__main__":
    main()
