"""Slow, independent reference implementations used to check the package.

Every function here deliberately takes a different route from the
production code: entropies go through numpy slogdet (LU) instead of
Cholesky, leave-one-out terms rebuild explicit submatrices instead of
using the inverse-diagonal identity, the O-information is tc - dtc
instead of the expanded entropy form, subset counts use the Pascal
recurrence instead of math.comb, ranks come from a double argsort
instead of one argsort and an inverse-permutation scatter, and normal
quantiles and digamma come from scipy.special (ndtri, digamma) instead of
the standard library's AS241 (statistics.NormalDist.inv_cdf) and the
recurrence-plus-series of copula_core._digamma. Agreement between the
two routes is the point; keep them independent.
"""

import itertools
import math

import numpy as np
from scipy.special import digamma, ndtri

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


def entropy(sigma):
    """Gaussian differential entropy in nats, via slogdet."""
    sigma = np.asarray(sigma, dtype=np.float64)
    n = sigma.shape[0]
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0, "reference entropy needs a positive definite matrix"
    return 0.5 * (n * LOG_2PI_E + logdet)


def entropy_bias(n, t):
    """Estimation bias of the entropy of a fitted Gaussian, plain loop."""
    acc = n * math.log(2.0 / (t - 1.0))
    for j in range(1, n + 1):
        acc += digamma((t - j) / 2.0)
    return 0.5 * acc


def measures(sigma, idx, t_samples=None):
    """(tc, dtc, o, s) for one n-plet, entirely from explicit submatrices.

    With t_samples set, every entropy is bias-corrected at its own
    dimension before the measures are formed. o is computed as tc - dtc,
    the route the production code avoids.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    idx = list(idx)
    k = len(idx)
    sub = sigma[np.ix_(idx, idx)]

    def h(m):
        val = entropy(m)
        if t_samples is not None:
            val -= entropy_bias(m.shape[0], t_samples)
        return val

    h_joint = h(sub)
    h_singles = [h(sub[i : i + 1, i : i + 1]) for i in range(k)]
    h_loo = []
    for i in range(k):
        keep = [j for j in range(k) if j != i]
        h_loo.append(h(sub[np.ix_(keep, keep)]))
    tc = sum(h_singles) - h_joint
    dtc = (1 - k) * h_joint + sum(h_loo)
    o = tc - dtc
    return tc, dtc, o, sum((tc, dtc))


def count_subsets(n, lo, hi):
    """Number of subsets with size in [lo, hi], Pascal-triangle route."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return sum(row[k] for k in range(lo, hi + 1))


def all_subsets(n, lo, hi):
    """Every subset of range(n) with size in [lo, hi], recursively.

    Yields tuples in the same (order-major, lexicographic) sequence the
    streaming enumerator promises.
    """

    def rec(start, need):
        if need == 0:
            yield ()
            return
        for first in range(start, n - need + 1):
            for rest in rec(first + 1, need - 1):
                yield (first,) + rest

    for k in range(lo, hi + 1):
        yield from rec(0, k)


def ranks(col):
    """Ordinal ranks in [1, T], ties broken by position (double argsort)."""
    col = np.asarray(col)
    order = np.argsort(col, kind="stable")
    out = np.empty(len(col), dtype=np.int64)
    out[order] = np.arange(1, len(col) + 1)
    return out


def copula(x):
    """Per-column copula-normal transform of a (T, N) array."""
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[0]
    cols = [ndtri(ranks(x[:, j]) / (t + 1.0)) for j in range(x.shape[1])]
    return np.stack(cols, axis=1)


def top_k(values, k, largest=True):
    """Indices of the k best values, ties kept by smaller index."""
    order = sorted(range(len(values)), key=lambda i: (-values[i] if largest else values[i], i))
    return order[:k]


def brute_force_best(sigma, lo, hi, largest=True):
    """Exhaustive O-information optimum over all orders in [lo, hi]."""
    best_val, best_idx = None, None
    n = sigma.shape[0] if hasattr(sigma, "shape") else len(sigma)
    for idx in all_subsets(n, lo, hi):
        o = measures(sigma, idx)[2]
        if best_val is None or (o > best_val if largest else o < best_val):
            best_val, best_idx = o, idx
    return best_val, best_idx


def effect_size(values_a, values_b):
    """Paired Cohen's d, textbook form."""
    diff = np.asarray(values_a, dtype=np.float64) - np.asarray(values_b, dtype=np.float64)
    return float(diff.mean() / diff.std(ddof=1))


def r_system_sigma(m, c):
    """Covariance of m sources plus their noisy sum, written out longhand."""
    out = np.zeros((m + 1, m + 1))
    for i in range(m):
        out[i, i] = 1.0 + c * c
        for j in range(m):
            if i != j:
                out[i, j] = c * c
        out[i, m] = out[m, i] = c
    out[m, m] = 1.0
    return out


def s_system_sigma(m, c):
    """Covariance of independent sources and their noisy sum, longhand."""
    out = np.eye(m + 1)
    for i in range(m):
        out[i, m] = out[m, i] = c
    out[m, m] = m * c * c + 1.0
    return out


if __name__ == "__main__":
    # handy when freezing constants into the test files
    print("entropy_bias(1, 2) =", repr(entropy_bias(1, 2)))
    print("entropy rho=0.5 pair =", repr(entropy(np.array([[1.0, 0.5], [0.5, 1.0]]))))
    print("ndtri(1/4) =", repr(ndtri(0.25)))
    print("count_subsets(30, 3, 30) =", count_subsets(30, 3, 30))
    for args in ((2, 1.0), (3, 1.0)):
        sig = r_system_sigma(*args)
        print(f"R{args} ->", tuple(repr(v) for v in measures(sig, range(sig.shape[0]))))
