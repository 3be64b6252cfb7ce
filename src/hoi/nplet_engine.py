"""Streamed n-plet enumeration and batched entropy-term computation.

An n-plet is a subset of k variables out of N. Batches hold B of them,
either as a (B, K) index matrix (fixed order) or as a (B, N) boolean mask
matrix (mixed orders). Every batch is evaluated on compact k x k
sub-covariances: a mixed-order batch is split by order, each group goes
through the fixed-order path, and the results are scattered back to the
rows' variable positions. Exhaustive scans evaluate whole orders through
a LogdetLattice instead, which reads every leave-one-out term from the
previous order's log-determinants; rows it cannot serve fall back to the
fixed-order path there and nowhere else. enumerate_order and the lattice
number n-plets in one combinatorial number system, with int64 ranks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .copula_core import (
    CovSet,
    _bias_table,
    _cholesky_logdet,
    _factor_with_jitter,
    _not_positive_definite,
)
from .errors import (
    ExhaustiveLimitExceeded,
    InvalidData,
    InvalidNplet,
    InvalidOrderRange,
    NotPositiveDefinite,
)


def count_nplets(n: int, min_order: int, max_order: int) -> int:
    """Exact number of variable subsets with size in [min_order, max_order]."""
    if not 1 <= min_order <= max_order <= n:
        raise InvalidOrderRange(
            f"need 1 <= min_order <= max_order <= n, "
            f"got min={min_order}, max={max_order}, n={n}"
        )
    return sum(math.comb(n, k) for k in range(min_order, max_order + 1))


class NpletBatch:
    """A batch of n-plets over N variables.

    Construct with exactly one of:

    indices : (B, K) integer array
        Fixed-order batch; rows strictly increasing, entries in [0, N).
    masks : (B, N) boolean array
        Mixed-order batch; each row selects at least one variable.

    Rows must be unique within a batch unless check_unique is disabled
    (trusted constructors: streaming enumeration, annealing chains that
    may legitimately coincide).
    """

    def __init__(self, n_variables: int, indices=None, masks=None,
                 check_unique: bool = True):
        if (indices is None) == (masks is None):
            raise InvalidNplet("provide exactly one of indices or masks")
        if n_variables < 1:
            raise InvalidData(f"n_variables must be >= 1, got {n_variables}")
        self.n_variables = int(n_variables)
        if indices is not None:
            idx = np.asarray(indices, dtype=np.int64)
            if idx.ndim != 2 or idx.shape[0] < 1 or idx.shape[1] < 1:
                raise InvalidNplet(f"indices must be a nonempty 2-D array, got shape {idx.shape}")
            if idx.min() < 0 or idx.max() >= n_variables:
                raise InvalidNplet(f"indices out of range for N={n_variables}")
            if idx.shape[1] > 1 and not (np.diff(idx, axis=1) > 0).all():
                raise InvalidNplet("index rows must be strictly increasing")
            if check_unique and np.unique(idx, axis=0).shape[0] != idx.shape[0]:
                raise InvalidNplet("duplicate n-plets in batch")
            self.mode = "fixed"
            self.indices = idx
            self.masks = None
        else:
            m = np.asarray(masks)
            if m.dtype != np.bool_:
                raise InvalidNplet("masks must be boolean")
            if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] != n_variables:
                raise InvalidNplet(f"masks must have shape (B, {n_variables}), got {m.shape}")
            if not m.any(axis=1).all():
                raise InvalidNplet("every mask must select at least one variable")
            if check_unique and np.unique(m, axis=0).shape[0] != m.shape[0]:
                raise InvalidNplet("duplicate n-plets in batch")
            self.mode = "mixed"
            self.indices = None
            self.masks = m

    @property
    def batch_size(self) -> int:
        arr = self.indices if self.mode == "fixed" else self.masks
        return arr.shape[0]

    @property
    def order(self) -> int:
        """The common order of a fixed-order batch."""
        if self.mode != "fixed":
            raise InvalidNplet("mixed-order batch has no single order")
        return self.indices.shape[1]

    def orders(self) -> np.ndarray:
        """(B,) effective order of every row."""
        if self.mode == "fixed":
            return np.full(self.batch_size, self.indices.shape[1], dtype=np.int64)
        return self.masks.sum(axis=1).astype(np.int64)

    def row_indices(self, i: int) -> tuple:
        """Sorted variable indices of row i, as a tuple."""
        if self.mode == "fixed":
            return tuple(int(v) for v in self.indices[i])
        return tuple(int(v) for v in np.flatnonzero(self.masks[i]))


_RANK_LIMIT = 2**62  # largest C(n, k) whose int64 ranks cannot wrap around


def _binomial_table(n: int, k_max: int) -> np.ndarray:
    """(n, k_max + 1) int64 table of C(a, b) for a < n and b <= k_max.

    Entries are clipped at 2**62 to fit int64; no served rank reads a
    clipped entry (every term of a k-subset's rank is below C(n, k), which
    enumerate_order keeps <= 2**62 and LogdetLattice below its cap).
    """
    return np.array(
        [[min(math.comb(a, b), _RANK_LIMIT) for b in range(k_max + 1)] for a in range(n)],
        dtype=np.int64,
    )


def _colex_unrank(ranks: np.ndarray, k: int, binom: np.ndarray) -> np.ndarray:
    """(B, k) strictly increasing rows at the given colex ranks.

    The inverse of the combinatorial number system rank sum_p C(c_p, p + 1):
    from p = k - 1 down, c_p is the largest a with C(a, p + 1) <= the rank
    left over. C(a, 1) = a, so the last remainder is c_0 itself.
    """
    rows = np.empty((ranks.shape[0], k), dtype=np.int64)
    r = np.array(ranks, dtype=np.int64)
    for p in range(k - 1, 0, -1):
        col = binom[:, p + 1]
        rows[:, p] = np.searchsorted(col, r, side="right") - 1
        r -= col[rows[:, p]]
    rows[:, 0] = r
    return rows


def _ranks(idx: np.ndarray, binom: np.ndarray):
    """(B,) colex ranks of the rows of idx and (B, K) ranks of each row
    without its member j."""
    pos = np.arange(idx.shape[1])
    stay = binom[idx, pos + 1]  # member p at position p
    move = binom[idx, pos]  # member p at position p - 1, after j < p left
    stay_sum = np.cumsum(stay, axis=1)
    move_sum = np.cumsum(move, axis=1)
    return stay_sum[:, -1], stay_sum - stay + move_sum[:, -1:] - move_sum


def enumerate_order(n: int, k: int, batch_size: int = 10000):
    """Yield every C(n, k) combination exactly once, in lexicographic order.

    Combinations stream in chunks of exactly batch_size rows (the last
    chunk may be shorter), each unranked on its own from LogdetLattice's
    number system: c has lexicographic rank C(n, k) - 1 - r', r' the colex
    rank of its mirror n - 1 - c. Memory stays O(batch_size * k); an order
    with C(n, k) > 2**62 raises ExhaustiveLimitExceeded.
    """
    if not 1 <= k <= n:
        raise InvalidOrderRange(f"need 1 <= k <= n, got k={k}, n={n}")
    if batch_size < 1:
        raise InvalidData(f"batch_size must be >= 1, got {batch_size}")
    total = math.comb(n, k)
    if total > _RANK_LIMIT:
        raise ExhaustiveLimitExceeded(
            f"C({n}, {k}) = {total} combinations exceed the int64 rank limit 2**62"
        )
    binom = _binomial_table(n, k)
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        # lexicographic ranks [start, stop) are mirror colex ranks, reversed
        mirror = _colex_unrank(np.arange(total - stop, total - start), k, binom)
        yield NpletBatch(n, indices=n - 1 - mirror[::-1, ::-1], check_unique=False)


@dataclass
class SubCovBatch:
    """Batched sub-covariance matrices.

    matrices : (B, D, K, K) array
        K is the n-plet order for fixed-order batches (N for the N x N
        embedding built by pad_subcov_batch).
    """

    matrices: np.ndarray


@dataclass
class EntropyTerms:
    """Entropy terms per (n-plet, dataset), in nats, without baselines.

    excess_joint : (B, D) joint entropy of each n-plet.
    excess_singles : (B, D, K) marginal entropy of each member variable.
    excess_leave_one_out : (B, D, K) entropy of the n-plet minus one member.
    orders : (B,) effective order of each row.

    Each entropy has its independent-standard-normal baseline removed
    (k, 1 and k - 1 times NORMAL_ENTROPY respectively): the baselines
    cancel algebraically in every interaction measure, so an identity
    covariance yields exact zeros instead of ~1e-16 residue. Bias
    corrections, when requested, are already applied.

    For mixed-order batches K equals N, each row's terms sit at its
    variables' positions and every other position holds zero, so sums
    over the last axis never need a mask.
    """

    excess_joint: np.ndarray
    excess_singles: np.ndarray
    excess_leave_one_out: np.ndarray
    orders: np.ndarray


def extract_subcov_batch(covs: CovSet, batch: NpletBatch) -> SubCovBatch:
    """Gather principal submatrices for a fixed-order batch in one shot."""
    if batch.mode != "fixed":
        raise InvalidNplet("extract_subcov_batch needs a fixed-order batch")
    if batch.n_variables != covs.n_variables:
        raise InvalidNplet(
            f"batch is over {batch.n_variables} variables, covariances over {covs.n_variables}"
        )
    sig = covs.stacked()
    d, n = sig.shape[0], sig.shape[1]
    idx = batch.indices
    flat = idx[:, :, None] * n + idx[:, None, :]  # (B, K, K) positions in an N x N matrix
    # one take over the flattened matrices, viewed as (B, D, K, K)
    mats = np.take(sig.reshape(d, n * n), flat, axis=1)
    return SubCovBatch(matrices=mats.transpose(1, 0, 2, 3))


def pad_subcov_batch(covs: CovSet, batch: NpletBatch) -> SubCovBatch:
    """Embed mixed-order rows into N x N matrices, identity at unused slots.

    Selected rows and columns copy the full covariance in their original
    positions; everywhere else the matrix is the identity, so the
    log-determinant equals that of the compact submatrix exactly. The
    engine itself never pads; this is a standalone helper.
    """
    if batch.mode != "mixed":
        raise InvalidNplet("pad_subcov_batch needs a mixed-order batch")
    if batch.n_variables != covs.n_variables:
        raise InvalidNplet(
            f"batch is over {batch.n_variables} variables, covariances over {covs.n_variables}"
        )
    sig = covs.stacked()
    m = batch.masks
    keep = m[:, None, :, None] & m[:, None, None, :]
    return SubCovBatch(matrices=np.where(keep, sig[None], np.eye(covs.n_variables)))


def _logdet_loo(mats: np.ndarray):
    """Joint and leave-one-out log-determinants of a (..., K, K) stack, via
    logdet(sigma without j) = logdet(sigma) + log((sigma^-1)_jj). An inverse
    diagonal entry <= 0 (a singular matrix whose Cholesky passed on rounding
    noise) fails like a failed Cholesky, so the jitter rule applies to it."""
    logdet = _cholesky_logdet(mats)
    invdiag = np.diagonal(np.linalg.inv(mats), axis1=-2, axis2=-1)
    if not (invdiag > 0.0).all():
        raise np.linalg.LinAlgError("inverse diagonal entry <= 0")
    return logdet, logdet[..., None] + np.log(invdiag)


def _direct_logdets(covs: CovSet, batch: NpletBatch):
    """Raw (B, D) joint and (B, D, K) leave-one-out log-determinants, jittered."""
    return _factor_with_jitter(extract_subcov_batch(covs, batch).matrices, _logdet_loo)


def _bias_offsets(covs: CovSet, k_max: int, bias_correct: bool) -> np.ndarray:
    """(D, k_max + 1) entropy bias eta(k, T_d) per dataset; zeros without
    bias correction, so subtracting it leaves raw values bit-identical."""
    if not bias_correct:
        return np.zeros((covs.n_datasets, k_max + 1))
    t_used = covs.samples_used()
    if (t_used <= 0).any():
        raise InvalidData(
            "bias correction needs sample-estimated covariances "
            "(n_samples_used > 0)"
        )
    return np.stack([_bias_table(int(t), k_max) for t in t_used])


def _excess_singles(covs: CovSet, bias: np.ndarray) -> np.ndarray:
    """(D, N) marginal excess entropies from the covariance diagonals."""
    diag = np.diagonal(covs.stacked(), axis1=-2, axis2=-1)
    return 0.5 * np.log(diag) - bias[:, 1][:, None]


def _excess_terms(joint, loo, idx: np.ndarray, x_singles, bias) -> EntropyTerms:
    """EntropyTerms of a fixed-order (B, K) index batch from its raw (B, D)
    joint and (B, D, K) leave-one-out log-determinants."""
    b, k = idx.shape
    return EntropyTerms(
        excess_joint=0.5 * joint - bias[:, k],
        excess_singles=x_singles[:, idx].transpose(1, 0, 2),
        excess_leave_one_out=0.5 * loo - bias[:, k - 1][None, :, None],
        orders=np.full(b, k, dtype=np.int64),
    )


def entropy_terms(covs: CovSet, batch: NpletBatch, bias_correct: bool = False) -> EntropyTerms:
    """Joint, marginal and leave-one-out entropies for a whole batch.

    Marginal entropies are computed once per dataset from the covariance
    diagonal and gathered per n-plet. With bias_correct, every entropy is
    corrected at its effective dimension (the n-plet order for the joint
    term, order minus one for leave-one-out, one for marginals).

    A mixed-order batch is evaluated order by order on the fixed-order
    path; a NotPositiveDefinite error reports (row, dataset) coordinates
    in the caller's batch.
    """
    orders = batch.orders()
    bias = _bias_offsets(covs, int(orders.max()), bias_correct)
    x_singles = _excess_singles(covs, bias)

    if batch.mode == "fixed":
        return _excess_terms(*_direct_logdets(covs, batch), batch.indices, x_singles, bias)

    b, n = batch.masks.shape
    d_count = covs.n_datasets
    x_joint = np.empty((b, d_count))
    x_sing = np.zeros((b, d_count, n))
    x_loo = np.zeros((b, d_count, n))
    d_ax = np.arange(d_count)[None, :, None]
    bad = []
    for k in np.unique(orders):
        rows = np.flatnonzero(orders == k)
        idx = np.nonzero(batch.masks[rows])[1].reshape(-1, k)
        try:
            raw = _direct_logdets(covs, NpletBatch(n, indices=idx, check_unique=False))
        except NotPositiveDefinite as err:
            bad += [(int(rows[g]), d) for g, d in err.coords]
            continue
        group = _excess_terms(*raw, idx, x_singles, bias)
        at = (rows[:, None, None], d_ax, idx[:, None, :])
        x_joint[rows] = group.excess_joint
        x_sing[at] = group.excess_singles
        x_loo[at] = group.excess_leave_one_out
    if bad:
        raise _not_positive_definite(sorted(bad))
    return EntropyTerms(x_joint, x_sing, x_loo, orders=orders)


#: Cap, in bytes, on the raw log-determinant tables a LogdetLattice keeps
#: live at once (two orders at most). An order whose tables would exceed it
#: is evaluated on the direct path.
LATTICE_TABLE_BYTES = 64 * 2**20


class LogdetLattice:
    """Raw log-determinants by order, for scanning whole orders in turn.

    Table k holds logdet(sigma_d[c, c]) of every k-plet c at its colex rank
    sum_i C(c_i, i + 1) (the combinatorial number system), one column per
    dataset. Every leave-one-out term of a k-plet is the joint term of a
    (k - 1)-plet, at rank sum_{p<j} C(c_p, p + 1) + sum_{p>j} C(c_p, p), so
    an order-k batch needs one batched Cholesky and table lookups, and no
    inverse. Tables hold raw values; bias corrections apply on reading.

    The caller opens orders in increasing order and evaluates every batch
    of an order before opening the next. open(k) builds a missing table
    k - 1 first (table 0 is zero, table 1 is log sigma_ii, higher ones
    take a Cholesky pass over unranked colex ranks) and keeps table k only
    if order k + 1 reads it. The two live tables are capped by
    LATTICE_TABLE_BYTES.

    terms() is the one fallback site, with one rule: a row runs on the
    direct path when any log-determinant it needs is NaN (its own joint
    after a failed batched Cholesky, a leave-one-out entry, or all of them
    when order k - 1 has no table), so it keeps compute_hoi_batch's value
    or NotPositiveDefinite coordinates.
    """

    def __init__(self, covs: CovSet, min_order: int, max_order: int, bias_correct: bool):
        self.covs = covs
        n, d = covs.n_variables, covs.n_datasets
        self.bias = _bias_offsets(covs, max_order, bias_correct)
        self.x_singles = _excess_singles(covs, self.bias)
        cap = LATTICE_TABLE_BYTES // (8 * d)
        self.served = {
            k for k in range(min_order, max_order + 1)
            if math.comb(n, k - 1) + (math.comb(n, k) if k < max_order else 0) <= cap
        }
        self.binom = _binomial_table(n, max_order)
        self.tables = {}

    def open(self, k: int, batch_size: int) -> None:
        """Make order k current; tables below order k - 1 are dropped."""
        self.tables = {m: t for m, t in self.tables.items() if m == k - 1}
        if k not in self.served:
            return
        n, d = self.covs.n_variables, self.covs.n_datasets
        if k - 1 not in self.tables:
            if k == 1:
                self.tables[0] = np.zeros((1, d))
            elif k == 2:
                self.tables[1] = np.log(np.diagonal(self.covs.stacked(), axis1=-2, axis2=-1)).T
            else:
                size = math.comb(n, k - 1)
                self.tables[k - 1] = np.full((size, d), np.nan)
                for start in range(0, size, batch_size):
                    rank = np.arange(start, min(start + batch_size, size))
                    idx = _colex_unrank(rank, k - 1, self.binom)
                    self._joint(NpletBatch(n, indices=idx, check_unique=False), rank)
        if k + 1 in self.served:
            self.tables[k] = np.full((math.comb(n, k), d), np.nan)

    def _joint(self, batch: NpletBatch, rank: np.ndarray) -> np.ndarray:
        """(B, D) raw log-determinants of a batch, stored at rank in its
        order's table when one is open; all NaN if the batched Cholesky fails."""
        try:
            raw = _cholesky_logdet(extract_subcov_batch(self.covs, batch).matrices)
        except np.linalg.LinAlgError:
            raw = np.full((batch.batch_size, self.covs.n_datasets), np.nan)
        if batch.order in self.tables:
            self.tables[batch.order][rank] = raw
        return raw

    def terms(self, batch: NpletBatch):
        """(EntropyTerms, rows on the direct path) of a batch of the open order."""
        k, idx = batch.order, batch.indices
        prev = self.tables.get(k - 1)
        if prev is None:  # no table k - 1: every log-determinant is missing
            joint = np.full((batch.batch_size, self.covs.n_datasets), np.nan)
            loo = np.full(joint.shape + (k,), np.nan)
        else:
            rank, loo_rank = _ranks(idx, self.binom)
            joint = self._joint(batch, rank)
            loo = prev[loo_rank].transpose(0, 2, 1)  # (B, D, k)
        rows = np.flatnonzero(np.isnan(joint).any(axis=1) | np.isnan(loo).any(axis=(1, 2)))
        if rows.size:
            sub = NpletBatch(batch.n_variables, indices=idx[rows], check_unique=False)
            try:
                joint[rows], loo[rows] = _direct_logdets(self.covs, sub)
            except NotPositiveDefinite as err:
                raise _not_positive_definite([(int(rows[g]), d) for g, d in err.coords]) from None
        return _excess_terms(joint, loo, idx, self.x_singles, self.bias), rows.size
