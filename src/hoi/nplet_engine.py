"""Streamed n-plet enumeration and batched entropy-term computation.

An n-plet is a subset of k variables out of N. Batches hold B of them,
either as a (B, K) index matrix (fixed order) or as a (B, N) boolean mask
matrix (mixed orders). Every batch is evaluated on compact k x k
sub-covariances: a mixed-order batch is split by order, each group goes
through the fixed-order path, and the results are scattered back to the
rows' variable positions.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .copula_core import CovSet, _bias_table, _factor_with_jitter, _not_positive_definite
from .errors import (
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

    def to_masks(self) -> np.ndarray:
        """(B, N) boolean view of the batch."""
        if self.mode == "mixed":
            return self.masks
        out = np.zeros((self.batch_size, self.n_variables), dtype=bool)
        np.put_along_axis(out, self.indices, True, axis=1)
        return out


def enumerate_order(n: int, k: int, batch_size: int = 10000):
    """Yield every C(n, k) combination exactly once, in lexicographic order.

    Combinations stream in chunks of at most batch_size rows, so memory
    stays O(batch_size * k) no matter how large C(n, k) is.
    """
    if not 1 <= k <= n:
        raise InvalidOrderRange(f"need 1 <= k <= n, got k={k}, n={n}")
    if batch_size < 1:
        raise InvalidData(f"batch_size must be >= 1, got {batch_size}")
    combos = itertools.combinations(range(n), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, batch_size)),
            dtype=np.int64,
        )
        if flat.size == 0:
            return
        yield NpletBatch(n, indices=flat.reshape(-1, k), check_unique=False)


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
    idx = batch.indices
    d_ax = np.arange(sig.shape[0])[None, :, None, None]
    rows = idx[:, None, :, None]
    cols = idx[:, None, None, :]
    return SubCovBatch(matrices=sig[d_ax, rows, cols])


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


def _logdet_invdiag(mats: np.ndarray):
    chol = np.linalg.cholesky(mats)
    inv = np.linalg.inv(mats)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return logdet, np.diagonal(inv, axis1=-2, axis2=-1)


def _batched_logdet_invdiag(mats: np.ndarray):
    """Joint log-determinants and inverse diagonals of a (..., K, K) stack.

    The inverse diagonal gives every leave-one-out log-determinant via
    logdet(sigma without j) = logdet(sigma) + log((sigma^-1)_jj), so one
    Cholesky plus one inverse per matrix covers all K subsystems.
    """
    return _factor_with_jitter(mats, _logdet_invdiag)


def _fixed_terms(covs: CovSet, batch: NpletBatch, x_singles, tables):
    """(joint, singles, leave-one-out) excess arrays of a fixed-order batch."""
    logdet, invdiag = _batched_logdet_invdiag(extract_subcov_batch(covs, batch).matrices)
    k = batch.order
    x_joint = 0.5 * logdet
    x_loo = 0.5 * (logdet[..., None] + np.log(invdiag))
    if tables is not None:
        x_joint = x_joint - tables[:, k][None, :]
        x_loo = x_loo - tables[:, k - 1][None, :, None]
    return x_joint, x_singles[:, batch.indices].transpose(1, 0, 2), x_loo


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
    sig = covs.stacked()
    orders = batch.orders()
    tables = None
    if bias_correct:
        t_used = covs.samples_used()
        if (t_used <= 0).any():
            raise InvalidData(
                "bias correction needs sample-estimated covariances "
                "(n_samples_used > 0)"
            )
        k_max = int(orders.max())
        tables = np.stack([_bias_table(int(t), k_max) for t in t_used])  # (D, k_max+1)

    x_singles = 0.5 * np.log(np.diagonal(sig, axis1=-2, axis2=-1))  # (D, N)
    if tables is not None:
        x_singles = x_singles - tables[:, 1][:, None]

    if batch.mode == "fixed":
        return EntropyTerms(*_fixed_terms(covs, batch, x_singles, tables), orders=orders)

    b, n = batch.masks.shape
    d_count = sig.shape[0]
    x_joint = np.empty((b, d_count))
    x_sing = np.zeros((b, d_count, n))
    x_loo = np.zeros((b, d_count, n))
    d_ax = np.arange(d_count)[None, :, None]
    bad = []
    for k in np.unique(orders):
        rows = np.flatnonzero(orders == k)
        idx = np.nonzero(batch.masks[rows])[1].reshape(-1, k)
        try:
            joint, sing, loo = _fixed_terms(
                covs, NpletBatch(n, indices=idx, check_unique=False), x_singles, tables)
        except NotPositiveDefinite as err:
            bad += [(int(rows[g]), d) for g, d in err.coords]
            continue
        at = (rows[:, None, None], d_ax, idx[:, None, :])
        x_joint[rows] = joint
        x_sing[at] = sing
        x_loo[at] = loo
    if bad:
        raise _not_positive_definite(sorted(bad))
    return EntropyTerms(x_joint, x_sing, x_loo, orders=orders)
