"""Exhaustive streaming scans with pluggable reducers.

A scan visits every n-plet in an order range exactly once per dataset,
in lexicographic order within each order, feeding (batch, measures)
pairs to a reducer. Reduction always happens on the calling thread in
enumeration order, so the result is independent of batch size and worker
count. Orders are evaluated one after another on a log-determinant
lattice (nplet_engine.LogdetLattice). The 21-feature informational
fingerprint of a dataset is one such reduction over orders 2..N.
"""

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .copula_core import CovSet
from .errors import ExhaustiveLimitExceeded, InvalidData, InvalidOrderRange
# bench/tracer.py wraps scanner.compute_hoi_batch, so the name stays importable here
from .measures import HoiBatch, compute_hoi_batch, hoi_from_sums  # noqa: F401
from .nplet_engine import LogdetLattice, NpletBatch, count_nplets, enumerate_order

MEASURES = ("tc", "dtc", "o", "s")


class Reducer:
    """Consumes (NpletBatch, HoiBatch) pairs in enumeration order."""

    def update(self, batch: NpletBatch, hoi: HoiBatch) -> None:
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError


def best_rows(values: np.ndarray, k: int, direction: str) -> np.ndarray:
    """Positions of the k best entries of a 1-D array, best first.

    Ties go to the smaller position. In a lexicographically ordered batch
    (enumerate_order, or sorted candidate rows) that is the smaller index
    tuple. The k-th best value is found by partition; only the rows
    strictly better than it are sorted.
    """
    key = -values if direction == "max" else values
    k = min(k, key.shape[0])
    thr = np.partition(key, k - 1)[k - 1]
    better = np.flatnonzero(key < thr)
    better = better[np.argsort(key[better], kind="stable")]
    tied = np.flatnonzero(key == thr)[:k - better.size]
    return np.concatenate([better, tied])


@dataclass(frozen=True)
class TopEntry:
    """One selected n-plet with all four measure values."""

    indices: tuple
    order: int
    value: float
    tc: float
    dtc: float
    o: float
    s: float


class TopK(Reducer):
    """Keep the k best n-plets per dataset for one measure.

    Ties are broken by the lexicographically smallest index tuple, which
    makes the selection independent of batch size and worker count.
    Each update selects its k best rows in numpy (best_rows, so rows must
    arrive in lexicographic order, as scan delivers them) and builds at
    most k TopEntry objects per dataset. finalize() returns a list of
    TopEntry lists, one per dataset.
    """

    def __init__(self, measure: str, direction: str, k: int):
        if measure not in MEASURES:
            raise InvalidData(f"measure must be one of {MEASURES}, got {measure!r}")
        if direction not in ("max", "min"):
            raise InvalidData(f"direction must be 'max' or 'min', got {direction!r}")
        if k < 1:
            raise InvalidData(f"k must be >= 1, got {k}")
        self.measure = measure
        self.direction = direction
        self.k = k
        self._best = None  # per dataset: sorted list of (key, TopEntry)

    def update(self, batch, hoi):
        vals = getattr(hoi, self.measure)
        if self._best is None:
            self._best = [[] for _ in range(vals.shape[1])]
        sign = -1.0 if self.direction == "max" else 1.0
        for d, entries in enumerate(self._best):
            v = vals[:, d]
            for i in best_rows(v, self.k, self.direction):
                idx = batch.row_indices(int(i))
                entry = TopEntry(
                    indices=idx,
                    order=len(idx),
                    value=float(v[i]),
                    tc=float(hoi.tc[i, d]),
                    dtc=float(hoi.dtc[i, d]),
                    o=float(hoi.o[i, d]),
                    s=float(hoi.s[i, d]),
                )
                entries.append(((sign * entry.value, idx), entry))
            entries.sort(key=lambda pair: pair[0])
            del entries[self.k:]

    def finalize(self):
        if self._best is None:
            return []
        return [[entry for _, entry in per_d] for per_d in self._best]


class Histogram(Reducer):
    """Fixed-range histogram of one measure per dataset.

    Values outside [lo, hi] are clipped into the edge bins. finalize()
    returns (edges, counts) with counts of shape (D, bins).
    """

    def __init__(self, measure: str, bins: int, lo: float, hi: float):
        if measure not in MEASURES:
            raise InvalidData(f"measure must be one of {MEASURES}, got {measure!r}")
        if bins < 1:
            raise InvalidData(f"bins must be >= 1, got {bins}")
        if not lo < hi:
            raise InvalidData(f"need lo < hi, got [{lo}, {hi}]")
        self.measure = measure
        self.edges = np.linspace(lo, hi, bins + 1)
        self._counts = None

    def update(self, batch, hoi):
        vals = getattr(hoi, self.measure)
        d_count = vals.shape[1]
        if self._counts is None:
            self._counts = np.zeros((d_count, len(self.edges) - 1), dtype=np.int64)
        lo, hi = self.edges[0], self.edges[-1]
        for d in range(d_count):
            v = np.clip(vals[:, d], lo, hi)
            self._counts[d] += np.histogram(v, bins=self.edges)[0]

    def finalize(self):
        return self.edges, self._counts


class Callback(Reducer):
    """Apply a user function to every (batch, hoi) pair, in enumeration
    order; finalize() returns the list of its return values."""

    def __init__(self, fn):
        if not callable(fn):
            raise InvalidData("Callback needs a callable")
        self.fn = fn
        self._results = []

    def update(self, batch, hoi):
        self._results.append(self.fn(batch, hoi))

    def finalize(self):
        return self._results


@dataclass(frozen=True)
class FeatureVector:
    """21 summary features of one dataset's interaction structure.

    Per measure: max, min, mean over all n-plets of orders 3..N plus the
    whole-system (order N) value. mi_mean / mi_std summarize pairwise
    mutual information (population std). The order at which the extreme
    O-information first appears is divided by N, and prop_synergistic is
    the fraction of n-plets with strictly negative O-information.
    """

    tc_max: float
    tc_min: float
    tc_mean: float
    tc_whole: float
    dtc_max: float
    dtc_min: float
    dtc_mean: float
    dtc_whole: float
    o_max: float
    o_min: float
    o_mean: float
    o_whole: float
    s_max: float
    s_min: float
    s_mean: float
    s_whole: float
    mi_mean: float
    mi_std: float
    o_max_order_norm: float
    o_min_order_norm: float
    prop_synergistic: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


class FeatureAccumulator(Reducer):
    """Streaming accumulator for the 21-feature fingerprint.

    Expects a scan over orders 2..N: order-2 rows feed the mutual
    information summaries, orders >= 3 feed the interaction summaries,
    and the single order-N row supplies the whole-system values. The
    C(N, 2) pairwise MI rows are kept, so their spread is a two-pass
    population std, free of the cancellation in E[x^2] - E[x]^2, reduced
    per dataset so that no dataset's features depend on the others'. The
    interaction sums fold in one row at a time from the scan's start (an
    axis-0 sum of a C-contiguous array adds its rows in order), so every
    feature is the same whatever the batch boundaries.
    """

    def __init__(self, n_variables: int):
        self.n = int(n_variables)
        self._d = None

    def _init_state(self, d_count: int) -> None:
        self._d = d_count
        self._sums = np.zeros((d_count, 4))
        self._maxs = np.full((d_count, 4), -np.inf)
        self._mins = np.full((d_count, 4), np.inf)
        self._count = 0
        self._o_max_order = np.zeros(d_count, dtype=np.int64)
        self._o_min_order = np.zeros(d_count, dtype=np.int64)
        self._syn = np.zeros(d_count, dtype=np.int64)
        self._mi = []
        self._whole = np.full((d_count, 4), np.nan)

    def update(self, batch, hoi):
        vals = np.stack([hoi.tc, hoi.dtc, hoi.o, hoi.s], axis=-1)  # (B, D, 4)
        if self._d is None:
            self._init_state(vals.shape[1])
        orders = hoi.order
        pair_rows = orders == 2
        if pair_rows.any():
            self._mi.append(hoi.tc[pair_rows])  # order-2 TC is the pairwise MI
        hoi_rows = orders >= 3
        if hoi_rows.any():
            v = vals[hoi_rows]
            o_col = hoi.o[hoi_rows]
            row_orders = orders[hoi_rows]
            v_max, v_min = v.max(axis=0), v.min(axis=0)
            # order of the extreme O-information: first strict attainment
            # in enumeration order (argmax/argmin pick the earliest row)
            self._o_max_order = np.where(v_max[:, 2] > self._maxs[:, 2],
                                         row_orders[np.argmax(o_col, axis=0)], self._o_max_order)
            self._o_min_order = np.where(v_min[:, 2] < self._mins[:, 2],
                                         row_orders[np.argmin(o_col, axis=0)], self._o_min_order)
            np.maximum(self._maxs, v_max, out=self._maxs)
            np.minimum(self._mins, v_min, out=self._mins)
            # the running sums lead the fold, so the order of additions is the scan's
            self._sums = np.concatenate([self._sums[None], v]).sum(axis=0)
            self._count += v.shape[0]
            self._syn += (o_col < 0.0).sum(axis=0)
            whole_rows = np.flatnonzero(row_orders == self.n)
            if whole_rows.size:
                self._whole = v[whole_rows[0]]

    def finalize(self):
        if self._d is None or self._count == 0 or not self._mi:
            raise InvalidData("feature accumulation needs orders 2..N")
        if np.isnan(self._whole).any():
            raise InvalidData("feature accumulation never saw the order-N row")
        # (D, C(N, 2)): one contiguous row per dataset, summed pairwise whatever D
        mi = np.concatenate(self._mi).T.copy()
        mi_mean, mi_std = np.mean(mi, axis=1), np.std(mi, axis=1)
        out = []
        for d in range(self._d):
            means = self._sums[d] / self._count
            kw = {}
            for m_i, m in enumerate(MEASURES):
                kw[f"{m}_max"] = float(self._maxs[d, m_i])
                kw[f"{m}_min"] = float(self._mins[d, m_i])
                kw[f"{m}_mean"] = float(means[m_i])
                kw[f"{m}_whole"] = float(self._whole[d, m_i])
            kw["mi_mean"] = float(mi_mean[d])
            kw["mi_std"] = float(mi_std[d])
            kw["o_max_order_norm"] = float(self._o_max_order[d] / self.n)
            kw["o_min_order_norm"] = float(self._o_min_order[d] / self.n)
            kw["prop_synergistic"] = float(self._syn[d] / self._count)
            out.append(FeatureVector(**kw))
        return out


def _ordered_map(fn, items, pool, workers: int):
    """Map fn over items on pool, which has that many workers (in this
    thread when pool is None), yielding results in input order."""
    if pool is None:
        for item in items:
            yield fn(item)
        return
    items = iter(items)
    pending = deque(pool.submit(fn, item) for item in itertools.islice(items, workers + 2))
    while pending:
        done = pending.popleft()
        for item in itertools.islice(items, 1):
            pending.append(pool.submit(fn, item))
        yield done.result()


def _batches(lattice: LogdetLattice, k: int, batch_size: int):
    """Order k's n-plets in lexicographic batches: slices of the lattice's
    index rows on a pivot order, enumerate_order on a walk order."""
    rows, n = lattice.rows, lattice.covs.n_variables
    if k not in lattice.pivots:
        return enumerate_order(n, k, batch_size)
    return (NpletBatch._trusted(n, rows[:, at:at + batch_size].T.astype(np.int64))
            for at in range(0, rows.shape[1], batch_size))


def scan(covs: CovSet, min_order: int, max_order: int, reducer: Reducer, *,
         batch_size: int = 10000, bias_correct: bool = False,
         workers: int = 1, progress=None):
    """Visit every n-plet with order in [min_order, max_order] once.

    Orders run one after another on a log-determinant lattice
    (nplet_engine.LogdetLattice). Nothing calls np.linalg.inv: inverses
    are bordered up from the empty set, and the direct path forms a
    triangular inverse by forward substitution. The lattice gives each
    batch the three (B, D) sums every measure is linear in: the joint
    excess entropy J, the members' sum S and the leave-one-out sum L;
    measures.hoi_from_sums turns them into tc, dtc, o and s. Each
    order takes one of two routes:

    - pivot: the order's table of joint excess entropies, indexed by
      colex rank, is built when the order opens, each entry the prefix's
      plus half the log of one Cholesky pivot less the bias step, read
      from conditional covariances (states) carried down from the order
      below and updated by one rank-one term per child. J is read from
      that table, L as k gathers of order k - 1's table and S as k
      gathers of the singles. Batches then only read tables: no gather of
      sub-covariances, no factorisation and no per-row entropy terms. The
      batches themselves are slices of the order's index rows, which the
      lattice builds from order k - 1's when the order opens: nothing is
      unranked.
    - walk: each batch, unranked by enumerate_order, borders its own
      prefix tree, from the empty set up to each n-plet, with one Schur
      complement per distinct prefix; the leave-one-out terms come from
      the bordered inverse's diagonal. No table is read or written.

    An order takes the pivot route when its two tables, C(N, k - 1) +
    C(N, k) floats per dataset, plus the states of orders k - 1 and k fit
    nplet_engine.LATTICE_TABLE_BYTES (64 MiB; at N=20 and D=1 they peak
    near 11 MB, at order 9), and every order below it did too; every
    other order walks, in O(batch_size * k**2 * D) memory. Walk batches
    run on one thread pool per scan, which waits at every order boundary
    (opening an order replaces the tables the previous one reads); pivot
    batches, bound by the interpreter lock, run on the calling thread.

    One rule sends a row to the direct path, with exactly
    compute_hoi_batch's measures or NotPositiveDefinite coordinates:
    the lattice does not trust it, because a pivot fell below
    nplet_engine.BORDER_RTOL (1e-3) times its variable's variance (it and
    every set built on it), a walked n-plet has a member whose variance
    given the others is below that share, or a Schur complement is not
    positive. The progress counter fallback_rows counts such rows; on
    well-conditioned input it is 0. Which rows they are, the values and
    the error message, which names the first failing n-plet, do not
    depend on batch_size or workers. An order with more than 2**62
    n-plets (int64 ranks) raises ExhaustiveLimitExceeded.

    Parameters
    ----------
    covs : CovSet
        Datasets to evaluate; every n-plet is scored against all of them.
    min_order, max_order : int
        Inclusive order range, within [1, N].
    reducer : Reducer
        Receives every (batch, measures) pair in enumeration order.
    batch_size : int
        Rows per streamed batch, at least 1; memory stays O(batch_size)
        plus, on pivot orders, the lattice's tables and states, at most
        64 MiB, and its index rows, k * C(N, k) bytes per order.
    bias_correct : bool
        Apply the finite-sample entropy correction (needs estimated
        covariances).
    workers : int
        Thread count for the batches of walk orders. Reduction stays in
        the calling thread in enumeration order, so results do not depend
        on this value.
    progress : callable, optional
        Called after each batch with a dict of counters
        (batches, nplets, total, order, fallback_rows, elapsed).

    Returns
    -------
    The reducer's finalize() value.
    """
    if not isinstance(reducer, Reducer):
        raise InvalidData("reducer must be a Reducer instance")
    n = covs.n_variables
    total = count_nplets(n, min_order, max_order)  # validates the range
    if workers < 1:
        raise InvalidData(f"workers must be >= 1, got {workers}")
    if batch_size < 1:
        raise InvalidData(f"batch_size must be >= 1, got {batch_size}")
    lattice = LogdetLattice(covs, min_order, max_order, bias_correct)

    def score(batch):
        sums, direct = lattice.sums(batch)
        return batch, hoi_from_sums(*sums, batch.orders()), direct

    t0 = time.perf_counter()
    seen = fallback = batches = 0
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for k in range(min_order, max_order + 1):
            lattice.open(k)
            # each order's map is drained before the next opens: open(k)
            # replaces the tables that batches of order k - 1 read, so none
            # of them may still be running. Pivot batches hold the
            # interpreter lock throughout, so threads gain them nothing
            on = None if k in lattice.pivots else pool
            for batch, hoi, direct in _ordered_map(
                    score, _batches(lattice, k, batch_size), on, workers):
                reducer.update(batch, hoi)
                batches += 1
                seen += batch.batch_size
                fallback += direct
                if progress is not None:
                    progress({
                        "batches": batches,
                        "nplets": seen,
                        "total": total,
                        "order": k,
                        "fallback_rows": fallback,
                        "elapsed": time.perf_counter() - t0,
                    })
    return reducer.finalize()


def extract_features(covs: CovSet, *, bias_correct: bool = False,
                     limit: int = 20, batch_size: int = 10000,
                     workers: int = 1, progress=None):
    """All 21 features per dataset from one exhaustive scan of orders 2..N.

    Systems larger than the limit are refused: the scan is exhaustive,
    so use the greedy or annealing search instead. Returns a list of
    FeatureVector, one per dataset.
    """
    n = covs.n_variables
    if n > limit:
        raise ExhaustiveLimitExceeded(
            f"N={n} exceeds the exhaustive feature limit ({limit}); "
            "use greedy or annealing search"
        )
    if n < 3:
        raise InvalidOrderRange(f"feature extraction needs N >= 3, got {n}")
    acc = FeatureAccumulator(n)
    return scan(covs, 2, n, acc, batch_size=batch_size,
                bias_correct=bias_correct, workers=workers, progress=progress)
