"""Independent reference computations used as test oracles.

Everything here is deliberately brute-force (enumeration, golden-section
search, bisection) and shares no code path with the library routines it
checks.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np


def golden_max(f, lo: float, hi: float, iters: int = 140):
    """Golden-section maximization of a unimodal f over [lo, hi].

    `f` must map an array of points to an array of values, and lo/hi may
    be arrays for a batch of independent 1-D searches.  Returns the
    maximum values.
    """
    lo = np.asarray(lo, dtype=np.float64) + 0.0
    hi = np.asarray(hi, dtype=np.float64) + 0.0
    lo, hi = np.broadcast_arrays(lo, hi)
    lo, hi = lo.copy(), hi.copy()
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        shrink_right = f1 < f2
        lo = np.where(shrink_right, x1, lo)
        hi = np.where(shrink_right, hi, x2)
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
        f1, f2 = f(x1), f(x2)
    mid = 0.5 * (lo + hi)
    return np.maximum(f(mid), np.maximum(f1, f2))


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection root of a scalar function with f(lo), f(hi) of opposite sign."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tv_sup_subsets(q: np.ndarray, p: np.ndarray) -> float:
    """Total variation via the defining supremum over all 2^m subsets."""
    m = q.size
    best = 0.0
    for mask in range(1 << m):
        sel = [(mask >> j) & 1 for j in range(m)]
        diff = abs(float(np.dot(sel, q - p)))
        best = max(best, diff)
    return best


def enumerate_law(value_of_counts, probs: np.ndarray, n: int) -> dict[float, float]:
    """Exact statistic law by enumerating all m^n sequences.

    `value_of_counts` maps a per-symbol count vector to the statistic
    value; sequence probabilities are products of symbol probabilities.
    """
    m = probs.size
    law: dict[float, float] = defaultdict(float)
    for seq in itertools.product(range(m), repeat=n):
        prob = float(np.prod(probs[list(seq)])) if n else 1.0
        if prob == 0.0:
            continue
        counts = np.bincount(np.array(seq, dtype=np.int64), minlength=m)
        law[round(float(value_of_counts(counts)), 9)] += prob
    return dict(law)


def direct_value(stat, counts) -> float:
    """A statistic's value from its textbook formula on a count vector.

    Written per statistic and loop by loop, without the f tables the
    library derives its evaluators from.
    """
    c = [int(x) for x in counts]
    n, m = sum(c), len(c)
    ref = getattr(stat, "reference", None)
    p = [1.0 / m] * m if ref is None else [float(x) for x in ref.probs]
    name = stat.name
    if name == "coincidence":
        return -float(sum(1 for x in c if x == 1))
    if name == "pearson":
        if ref is None:
            return float(sum(x * x for x in c)) - n * n / m
        return (n / m) * sum((x - n * pj) ** 2 / (n * pj) for x, pj in zip(c, p))
    if name == "pearson-truncated":
        return sum(1 for x in c if x == 1) + 4.0 * sum(1 for x in c if x == 2) - n * n / m
    if name == "extended-coincidence":
        value = -float(sum(1 for x in c if x == 1))
        for level, v in enumerate(stat.weights, start=2):
            value += v * sum(1 for x in c if x == level)
        return value
    if name == "weighted-coincidence":
        total = 0.0
        for x, pj in zip(c, p):
            if x == 0:
                total += 0.5 * n * n * pj * pj
            elif x == 1:
                total -= n * pj
            elif x == 2:
                total += 1.0
        return total
    raise ValueError(f"no direct formula for {name}")


def sorted_compositions(total: int, slots: int, cap: int) -> list[tuple[int, ...]]:
    """Non-increasing `slots`-tuples of ints in [0, cap] summing to `total`,
    in descending lexicographic order, filtered from all such tuples."""
    rows = itertools.combinations_with_replacement(range(cap, -1, -1), slots)
    return sorted((row for row in rows if sum(row) == total), reverse=True)


def deviation_bounds(core, n: int) -> tuple[int, int]:
    """(floor, ceil) of n times the smallest and largest ratio
    (f(c) - f(0)) / c over the rows of an integer table, with 0 included,
    in exact rational arithmetic."""
    ratios = [Fraction(0)]
    for row in core:
        f0 = int(row[0])
        ratios += [Fraction(int(row[c]) - f0, c) for c in range(1, len(row))]
    return math.floor(n * min(ratios)), math.ceil(n * max(ratios))
