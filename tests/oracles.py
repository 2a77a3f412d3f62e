"""Independent reference computations used as test oracles.

Everything here is deliberately brute-force (enumeration, golden-section
search, bisection) and shares no code path with the library routines it
checks.  `run_python` is the shared tooling that runs a script in a fresh
interpreter, for checks that need their own process environment.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter, defaultdict
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


def bruteforce_reference(m: int, eps: float, mesh: int) -> tuple[list[int], Fraction]:
    """First grid point, in descending lexicographic order, of least
    m sum q_j^2 over the sorted simplex grid of resolution 1/mesh at TV
    distance >= eps - 1e-12 from uniform: its grid counts and its value,
    in exact rational arithmetic."""
    floor = Fraction(eps - 1e-12)
    best = None
    for row in sorted_compositions(mesh, m, mesh):
        tv = sum(abs(Fraction(x, mesh) - Fraction(1, m)) for x in row) / 2
        value = Fraction(m * sum(x * x for x in row), mesh * mesh)
        if tv >= floor and (best is None or value < best[1]):
            best = (list(row), value)
    if best is None:
        raise ValueError(f"no grid point at TV distance >= {eps} from uniform (mesh {mesh})")
    return best


def partition_tree(total: int, slots: int, cap: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every non-increasing row of `slots` non-negative ints at most cap
    summing to `total`, in descending lexicographic order, as a tree with
    one (entry, parent) pair of arrays per column: a prefix takes each next
    entry from min(what is left, its last entry) down to ceil(what is left /
    slots left), and the last column keeps the prefixes whose forced entry
    fits."""
    left, cap, levels = np.array([total]), np.array([cap]), []
    for k in range(slots, 1, -1):
        hi = np.minimum(left, cap)
        size = np.maximum(hi + 1 + (-left // k), 0)  # hi - ceil(left / k) + 1
        parent = np.repeat(np.arange(hi.size), size)
        cap = (hi - size + np.cumsum(size))[parent] - np.arange(parent.size)  # from hi down
        left = left[parent] - cap
        levels.append((cap, parent))
    parent = np.flatnonzero(left <= cap)
    return levels + [(left[parent], parent)]


def bruteforce_walk(m: int, eps: float, mesh: int) -> tuple[list[int], float]:
    """The unpruned grid walk: every sorted row of every head from mesh down,
    scored with exact integer sums, until the first head whose greedy row
    (head, ..., head, rest, 0, ...) lies inside the shell.  Returns the grid
    counts and value m sum x^2 / mesh^2 of the first point of least sum x^2,
    in descending lexicographic order, at TV distance >= eps - 1e-12."""
    best_sq, best = math.inf, None
    shell = (eps - 1e-12) * 2 * m * mesh
    for head in range(mesh, -(-mesh // m) - 1, -1):
        full, rest = divmod(mesh, head)
        if full * abs(m * head - mesh) + abs(m * rest - mesh) + (m - full - 1) * mesh < shell:
            break
        levels = [(np.array([head]), np.array([0]))] + partition_tree(mesh - head, m - 1, head)
        sq = tv = np.zeros(1, dtype=np.int64)
        for entry, parent in levels:
            sq = sq[parent] + entry * entry
            tv = tv[parent] + np.abs(m * entry - mesh)
        feas = np.flatnonzero(tv >= shell)
        if feas.size and sq[k := feas[np.argmin(sq[feas])]] < best_sq:
            best_sq, best = sq[k], (levels, k)
    if best is None:
        raise ValueError(f"no grid point at TV distance >= {eps} from uniform (mesh {mesh})")
    levels, k = best
    row = []
    for entry, parent in reversed(levels):
        row, k = [int(entry[k])] + row, parent[k]
    return row, m * int(best_sq) / mesh**2


def deviation_bounds(core, n: int) -> tuple[int, int]:
    """(floor, ceil) of n times the smallest and largest ratio
    (f(c) - f(0)) / c over the rows of an integer table, with 0 included,
    in exact rational arithmetic."""
    ratios = [Fraction(0)]
    for row in core:
        f0 = int(row[0])
        ratios += [Fraction(int(row[c]) - f0, c) for c in range(1, len(row))]
    return math.floor(n * min(ratios)), math.ceil(n * max(ratios))


def shift_add_law(stat, p, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law (support, probs) of an integer-valued separable statistic
    by the symbol-by-symbol shift-add dynamic program.

    One pass per symbol over an (count used, core value) array, with
    Poisson(n p_j) count weights from the pmf recursion, then one division
    by P(Poisson(n) = n); values run on the plain axis f(c) - f(0),
    reduced by the gcd of its steps.  Cost n^2 m (value range).
    """
    m = p.m
    t = stat.table(n, m)
    core = np.rint(t.f[:, np.minimum(np.arange(n + 1), t.K)]).astype(np.int64)
    rows = np.zeros(m, dtype=np.int64) if t.group is None else t.group
    dev = core - core[:, :1]
    step = max(int(np.gcd.reduce(dev, axis=None)), 1)
    dev //= step
    lo, up = deviation_bounds(dev, n)
    width = up - lo + 1
    W = np.zeros((n + 1, width))
    W[0, -lo] = 1.0
    for pj, g in zip(p.probs.tolist(), rows.tolist()):
        w = np.zeros(n + 1)
        w[0] = math.exp(-n * pj)
        for c in range(1, n + 1):
            w[c] = w[c - 1] * n * pj / c
        nxt = np.zeros_like(W)
        for c in range(n + 1):
            if w[c] == 0.0:
                continue
            d = int(dev[g, c])
            src = W[: n + 1 - c]
            if d >= 0:
                nxt[c:, d:] += src[:, : width - d] * w[c]
            else:
                nxt[c:, :d] += src[:, -d:] * w[c]
        W = nxt
    cond = math.exp(-n + n * math.log(n) - math.lgamma(n + 1)) if n > 0 else 1.0
    vec = W[n] / cond
    mask = vec > 0.0
    values = int(core[rows, 0].sum()) + step * (lo + np.flatnonzero(mask))
    return values / t.scale + t.shift, vec[mask] / vec[mask].sum()


# every 2^a 3^b 5^c up to 2^40: the lengths the FFT transforms fast
FAST_LENGTHS = sorted(x for x in (2**a * 3**b * 5**c for a in range(41) for b in range(26)
                                  for c in range(18)) if x <= 2**40)


def full_count_len(n: int) -> int:
    """Smallest fast length L > n with P(Poisson(n) >= n + L), the mass that
    wraps onto count n, below e^-46 by the bound exp(-n h(1 + L/n)),
    h(x) = x log x - x + 1: a count axis that holds every count 0..n."""
    return next(size for size in FAST_LENGTHS if size > n and (
        not n or n * ((1 + size / n) * math.log1p(size / n) - size / n) >= 46.0))


def full_grid_law(stat, p, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law (support, probs) of an integer-valued separable statistic
    at n >= 1 on the full log-spectrum grid: counts 0..L-1 with L from
    `full_count_len`, and every value `deviation_bounds` allows.

    Values run on the excess axis f(c) - f(0) - c s, s the slope of the
    first drawn row, reduced by the gcd of its steps.  Each symbol group's
    Poisson(n p_j) weights of counts 2..n are written into its own (count,
    value) base by plain assignment (no two counts share a cell), counts 0
    and 1 join its spectrum s in closed form, k log s is summed over the
    groups, and count n of the exp, normalised, is the law.  Entries within
    8 times the round-off are clipped.  Cost (groups) L W.
    """
    t = stat.table(n, p.m)
    core = np.rint(t.f[:, np.minimum(np.arange(n + 1), t.K)]).astype(np.int64)
    groups = counter_groups(t, p)
    drawn = [(k, pj, g) for k, pj, g in groups if pj > 0.0]
    first = drawn[0][2]
    slope = int(core[first, 1] - core[first, 0])
    excess = core - core[:, :1] - slope * np.arange(n + 1)
    rows = sorted({g for *_, g in drawn})
    step = max(int(np.gcd.reduce(excess[rows], axis=None)), 1)
    excess //= step
    lo, up = deviation_bounds(excess[rows], n)
    size = full_count_len(n)
    width = FAST_LENGTHS[bisect.bisect_left(FAST_LENGTHS, up - lo + 1)]
    counts = np.arange(n + 1)
    lgammas = np.array([math.lgamma(c + 1) for c in counts])
    total = np.zeros((size, width // 2 + 1), dtype=complex)
    for k, pj, g in drawn:
        lam = n * pj
        w = np.exp(-lam + counts * math.log(lam) - lgammas)
        base = np.zeros((size, width))
        base[counts[2:], excess[g, 2:] % width] = w[2:]
        z = np.fft.fft(np.fft.rfft(base), axis=0)
        # the base less its unit mass, s - 1: counts 0 and 1 add w0 - 1 + w1 e^(-i psi),
        # psi = 2 pi (row / size + excess(1) column / width), in closed form
        psi = np.add.outer(np.arange(size) / size, np.arange(width // 2 + 1) * excess[g, 1] / width)
        psi = 2.0 * np.pi * (psi - np.rint(psi))
        z += math.expm1(-lam) + w[1] - w[1] * (2.0 * np.sin(psi / 2) ** 2 + 1j * np.sin(psi))
        x, y = z.real, z.imag
        with np.errstate(divide="ignore", invalid="ignore"):  # log |s|^2, digits kept near s = 1
            mag = np.where(x * x + y * y < 0.25, np.log1p((2.0 + x) * x + y * y),
                           np.log((1.0 + x) ** 2 + y * y))
        total.real += 0.5 * k * mag
        total.imag += k * np.arctan2(y, 1.0 + x)
    twiddle = np.exp(2j * np.pi * (np.arange(size) * n % size) / size) / size
    row = np.fft.irfft(np.einsum("i,ij->j", twiddle, np.exp(total)), width)
    floor = 8.0 * max(-row.min(), np.finfo(float).eps * row.max())
    vec = np.roll(np.where(row > floor, row, 0.0), -lo)[: up - lo + 1]
    mask = vec > 0.0
    values = sum(k * int(core[g, 0]) for k, _, g in groups) + n * slope
    values = values + step * (lo + np.flatnonzero(mask))
    return values / t.scale + t.shift, vec[mask] / vec[mask].sum()


def array_uniform(m: int) -> np.ndarray:
    """The uniform distribution filled symbol by symbol."""
    return np.full(m, 1.0 / m)


def array_biuniform(m: int, eps: float) -> np.ndarray:
    """The bi-uniform worst case filled symbol by symbol: floor(m/2) heavy
    symbols and the rest light below eps = 0.5, else floor(m (1 - eps))
    symbols at 1/k and the rest at 0."""
    if eps < 0.5:
        probs = np.empty(m)
        probs[:m // 2] = 1.0 / m + eps / (m // 2)
        probs[m // 2:] = 1.0 / m - eps / ((m + 1) // 2)
        return probs
    k = math.floor(m * (1.0 - eps) + 1e-9)
    probs = np.zeros(m)
    probs[:k] = 1.0 / k
    return probs


def unique_groups(t, p) -> list[tuple[int, float, int]]:
    """(k, p_j, row) for each (level, table row) pair of the symbols by
    `np.unique` over their per-symbol keys, in order of first appearance."""
    levels, _ = p.groups
    rows = t.f.shape[0]
    key = p.index.astype(np.intp) * rows + (0 if t.group is None else t.group)
    key, first, k = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    level, row = np.divmod(key[order], rows)
    return list(zip(k[order].tolist(), levels[level].tolist(), row.tolist()))


def counter_groups(t, p) -> list[tuple[int, float, int]]:
    """(k, p_j, row) for each (p_j, table row) pair of the symbols, k its
    multiplicity, in order of first appearance: a Counter over the symbols."""
    rows = [0] * p.m if t.group is None else t.group.tolist()
    return [(k, pj, g) for (pj, g), k in Counter(zip(p.probs.tolist(), rows)).items()]


def full_sum_expectation(stat, p, n: int) -> float:
    """E sum_j f_j(B_j), B_j ~ Binomial(n, p_j), summed over every count
    0..n of every symbol group, with math.comb binomial masses (small n)."""
    t = stat.table(n, p.m)
    total = 0.0
    for k, pj, g in counter_groups(t, p):
        row = t.f[g, np.minimum(np.arange(n + 1), t.K)]
        binom = np.array([math.comb(n, c) * pj**c * (1.0 - pj) ** (n - c) for c in range(n + 1)])
        total += k * float(row @ binom)
    return total / t.scale + t.shift


def run_python(script: str, **env: str) -> str:
    """Stdout of `script` run in a fresh interpreter on this gee."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, check=True,
                          capture_output=True, text=True).stdout
