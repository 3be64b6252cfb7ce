"""Streamed n-plet enumeration and batched entropy-term computation.

An n-plet is a subset of k variables out of N. Batches hold B of them,
either as a (B, K) index matrix (fixed order) or as a (B, N) boolean mask
matrix (mixed orders). Every interaction measure is linear in three
sums per (n-plet, dataset): the joint term J, the sum S of the singles
and the sum L of the leave-one-out terms. entropy_terms, the one direct
path, gives them for a batch from compact k x k sub-covariances, one
order at a time, each row summed over its own members. Scans and
searches get the same sums from a LogdetLattice instead, on one of two
routes per order. The pivot route reads them straight from tables of
excess entropies, built from pivots carried down the subset lattice while
they fit a memory cap, with no per-row terms; every other batch walks
its own prefix tree, and the walk's leaf step (extend) also scores greedy
growth. One kernel, _border, adds a variable to a set of known
inverse and log-determinant through its Schur complement (_grow then
grows the inverse, _unborder removes a variable); it serves the lattice
and _BorderedSets, the stored sets that annealing moves and scores
through a lattice. Every bordering starts from the empty set
(log-determinant 0, a 0 x 0 inverse): _prefix_descent borders sets up
from it one member at a time, and the pivot route's tables climb from
table 0. Only the direct path factors (copula_core._jittered_cholesky,
the one jitter retry), and nothing calls np.linalg.inv. A Schur
complement that is not positive gives NaN, and a set is trusted only
while every member's relative Schur complement clears BORDER_RTOL
(_conditioned); rows that are not go to the direct path from one site,
LogdetLattice._checked. enumerate_order and the lattice number n-plets in
one combinatorial number system, with int64 ranks; a scan streams a walk
order from enumerate_order and slices a pivot order from the index rows
its lattice builds (_lex_rows).
"""

import math
from dataclasses import dataclass

import numpy as np

from .copula_core import (
    CovSet,
    _bias_table,
    _factor_logdet,
    _jittered_cholesky,
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

    Rows must be unique within a batch unless check_unique is disabled.
    Batches the engine builds itself come from NpletBatch._trusted, which
    checks nothing.
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

    @classmethod
    def _trusted(cls, n_variables: int, indices: np.ndarray) -> "NpletBatch":
        """A fixed-order batch of int64 rows the engine built itself, which
        are strictly increasing and in range by construction: no checks."""
        batch = cls.__new__(cls)
        batch.n_variables = n_variables
        batch.mode = "fixed"
        batch.indices = indices
        batch.masks = None
        return batch

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

    Entries are clipped at 2**62 to fit int64; no rank reads a
    clipped entry (every term of a k-subset's rank is below C(n, k), which
    enumerate_order keeps <= 2**62 and the lattice's pivot route below its
    cap).
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
    without its member j: a prefix sum of C(c_p, p + 1) over p < j plus a
    suffix sum of C(c_p, p) over p > j (member p moves to position p - 1),
    one B-long column at a time."""
    k = idx.shape[1]
    cols, by_pos = idx.T, binom.T
    loo = np.empty((k, idx.shape[0]), dtype=np.int64)
    acc = np.zeros(idx.shape[0], dtype=np.int64)
    for p in range(k):
        loo[p] = acc
        acc += by_pos[p + 1][cols[p]]
    rank, acc = acc, np.zeros_like(acc)
    for p in range(k - 1, -1, -1):
        loo[p] += acc
        acc += by_pos[p][cols[p]]
    return rank, loo.T


def enumerate_order(n: int, k: int, batch_size: int = 10000):
    """Yield every C(n, k) combination exactly once, in lexicographic order.

    Combinations stream in chunks of exactly batch_size rows (the last
    chunk may be shorter), each unranked on its own from LogdetLattice's
    number system: c has lexicographic rank C(n, k) - 1 - r', r' the colex
    rank of its mirror n - 1 - c. Memory stays O(batch_size * k); an order
    with C(n, k) > 2**62 raises ExhaustiveLimitExceeded. A scan streams
    its walk orders from here; a pivot order slices the same rows from its
    lattice's index table (_lex_rows) instead.
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
        yield NpletBatch._trusted(n, n - 1 - mirror[::-1, ::-1])


def _lex_rows(below: np.ndarray, n: int) -> np.ndarray:
    """(k, C(n, k)) members of every k-subset of n variables, one column
    each, in lexicographic order, from below, the same array of order
    k - 1 (one empty column for order 0). The block led by variable u is u
    over the last C(n - 1 - u, k - 1) columns of below, the (k - 1)-subsets
    of u + 1..n - 1 (Knuth, TAOCP 4A 7.2.1.3), so each member row is k
    slice copies. Member row p is contiguous, so a (B, k) batch
    rows[:, a:b].T is column-major; the dtype is below's."""
    k, total = len(below) + 1, below.shape[1]
    rows = np.empty((k, math.comb(n, k)), dtype=below.dtype)
    at = 0
    for u in range(n - k + 1):
        size = math.comb(n - 1 - u, k - 1)
        rows[0, at:at + size] = u
        rows[1:, at:at + size] = below[:, total - size:]
        at += size
    return rows


@dataclass
class SubCovBatch:
    """Batched sub-covariance matrices.

    matrices : (B, D, K, K) array
        K is the n-plet order for fixed-order batches (N for the N x N
        embedding built by pad_subcov_batch).
    """

    matrices: np.ndarray


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


def _direct_logdets(covs: CovSet, batch: NpletBatch):
    """Raw (B, D) joint and (B, D, K) leave-one-out log-determinants of a
    fixed-order batch from _jittered_cholesky's factors L:
    logdet(sigma without j) = logdet(sigma) + log((sigma^-1)_jj), where
    (sigma^-1)_jj = sum_i R_ij^2 with R = L^-1 (forward substitution) is
    positive by construction. Only that diagonal of R^T R is formed."""
    chol = _jittered_cholesky(extract_subcov_batch(covs, batch).matrices)
    r = np.zeros_like(chol)
    for i in range(chol.shape[-1]):
        r[..., i, :i] = -np.einsum("...j,...jl->...l", chol[..., i, :i],
                                   r[..., :i, :i]) / chol[..., i, i, None]
        r[..., i, i] = 1.0 / chol[..., i, i]
    joint = _factor_logdet(chol)
    return joint, joint[..., None] + np.log(np.einsum("...ij,...ij->...j", r, r))


def _border(sigma: np.ndarray, members: np.ndarray, v: np.ndarray,
            inv: np.ndarray, logdet: np.ndarray):
    """Add variable v[b] to the set S = members[b] of known inverse and
    log-determinant, for every row b (bordering; Hager 1989, SIAM Review
    31:221).

    sigma (D, N, N) are the covariances, members (B, m) and v (B,) index
    them, inv (B, D, m, m) is sigma_d[S, S]^-1 and logdet (B, D) its
    log-determinant. With b = sigma[S, v], z = inv @ b and the Schur
    complement s = sigma_vv - b . z,

        logdet(S + v) = logdet(S) + log s,
        diag(sigma[S + v, S + v]^-1) = diag(inv) + z**2 / s on S, 1 / s at v.

    Returns logdet(S + v), that diagonal on S (B, D, m), z and s. A slot
    of S whose rows and columns of inv are zero contributes nothing. A
    Schur complement that is not positive is NaN, and NaN inputs stay NaN,
    so the direct path takes such rows. _unborder runs the identity
    backwards.
    """
    n = sigma.shape[-1]
    flat = sigma.reshape(len(sigma), n * n)
    cross = np.take(flat, members * n + v[:, None], axis=1).transpose(1, 0, 2)  # (B, D, m)
    z = np.einsum("...ij,...j->...i", inv, cross)
    s = flat[:, v * (n + 1)].T - np.einsum("...i,...i->...", cross, z)
    s = np.where(s > 0.0, s, np.nan)
    diag = np.diagonal(inv, axis1=-2, axis2=-1) + z * z / s[..., None]
    return logdet + np.log(s), diag, z, s


def _grow(inv: np.ndarray, z: np.ndarray, s: np.ndarray, slot) -> np.ndarray:
    """sigma[S + v, S + v]^-1, in place, from inv = sigma[S, S]^-1 (B, D, W, W)
    and _border's z and s, with z over inv's leading slots: inv + z z^T / s
    there, then -z / s in row and column slot and 1 / s where they cross.
    v takes slot, per row or one for all, whose row and column are dead
    (zero, or past z). Returns inv."""
    m, edge = z.shape[-1], -z / s[..., None]
    inv[..., :m, :m] -= z[..., :, None] * edge[..., None, :]
    rows = np.arange(len(inv))
    inv[rows, :, slot, :m] = edge
    inv[rows, :, :m, slot] = edge
    inv[rows, :, slot, slot] = 1.0 / s
    return inv


def _prefix_descent(sigma: np.ndarray, idx: np.ndarray):
    """Log-determinants (P, D) and inverses (P, D, m, m) of the distinct
    sets among the (B, m) index rows idx, and each row's set (B,).

    The level-l nodes are the runs of adjacent rows sharing an (l + 1)-
    prefix, as in lexicographic order. The descent starts from the empty
    set (logdet 0, a 0 x 0 inverse), and every node is its parent bordered
    by its last member (_border, then _grow into the node's new slot; Hager
    1989, SIAM Review 31:221): it holds exactly its own members and depends
    on its prefix alone. A Schur complement that is not positive makes a
    node and its subtree NaN."""
    b, m = idx.shape
    d = len(sigma)
    logdet, inv = np.zeros((1, d)), np.zeros((1, d, 0, 0))
    new, node = np.arange(b) == 0, np.zeros(b, dtype=int)  # every row starts at the root
    for l in range(m):
        new[1:] |= idx[1:, l] != idx[:-1, l]  # rows that start a node of the level
        first = np.flatnonzero(new)
        at = node[first]
        parent = np.take(inv, at, axis=0)  # np.take gathers rows several times faster
        logdet, _, z, s = _border(sigma, idx[first, :l], idx[first, l], parent, logdet[at])
        inv = np.zeros((len(first), d, l + 1, l + 1))
        inv[..., :l, :l] = parent
        _grow(inv, z, s, l)
        node = np.cumsum(new) - 1
    return logdet, inv, node


def _unborder(inv: np.ndarray, logdet: np.ndarray, j: np.ndarray):
    """Remove member slot j[b] from sets S of known inverse inv (B, D, m, m)
    and log-determinant logdet (B, D): logdet(S - j) = logdet(S) + log inv_jj,
    and sigma[S - j, S - j]^-1 is inv - inv[:, j] inv[j, :] / inv_jj with
    row and column j zeroed. Returns both, NaN where inv_jj is not
    positive, as in _border."""
    rows = np.arange(len(j))
    col = inv[rows, :, :, j]  # (B, D, m)
    pjj = col[rows, :, j]
    pjj = np.where(pjj > 0.0, pjj, np.nan)
    keep = np.arange(inv.shape[-1]) != j[:, None, None]
    down = inv - col[..., :, None] * col[..., None, :] / pjj[..., None, None]
    down *= keep[..., :, None] & keep[..., None, :]
    return logdet + np.log(pjj), down


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


def _excess_sums(joint, loo, idx: np.ndarray, x_singles, bias, live=None):
    """(B, D) sums J, S and L of (B, K) member rows idx from their raw
    (B, D) joint and (B, D, K) leave-one-out log-determinants: each excess
    entropy is 1/2 logdet less its bias at its effective dimension, summed
    slot by slot. Every slot is a member unless live (B, K) marks the
    members; the other slots then add zeros."""
    k = idx.shape[1]
    singles = x_singles[:, idx].transpose(1, 0, 2)
    if live is None:
        joint, loo = 0.5 * joint - bias[:, k], 0.5 * loo - bias[:, k - 1][None, :, None]
    else:
        orders, at = live.sum(axis=1), live[:, None, :]
        joint, loo = 0.5 * joint - bias[:, orders].T, 0.5 * loo - bias[:, orders - 1].T[:, :, None]
        singles, loo = np.where(at, singles, 0.0), np.where(at, loo, 0.0)
    return joint, singles.sum(axis=-1), loo.sum(axis=-1)


def entropy_terms(covs: CovSet, batch: NpletBatch, bias_correct: bool = False):
    """(B, D) sums J, S and L of a whole batch: the direct path.

    J is each n-plet's excess joint entropy, S the sum of its members' and L
    the sum of its leave-one-out ones; every interaction measure is linear
    in the three (measures.hoi_from_sums). An excess entropy has its
    independent-standard-normal baseline (k, 1 or k - 1 times
    NORMAL_ENTROPY) removed: the baselines cancel algebraically in every
    measure, so an identity covariance yields exact zeros instead of ~1e-16
    residue. Marginal entropies are computed once per dataset from the
    covariance diagonal and gathered per n-plet. With bias_correct, every
    entropy is corrected at its effective dimension (the n-plet order for
    the joint term, order minus one for leave-one-out, one for marginals).

    The raw log-determinants come from _direct_logdets, one call per
    order, and each order's rows are summed over their own members
    (_excess_sums), so a mask row's sums equal its sorted index row's.
    NotPositiveDefinite coordinates are (row, dataset) in the caller's
    batch; the message names the first failing row's n-plet, whatever the
    batching.
    """
    orders = batch.orders()
    bias = _bias_offsets(covs, int(orders.max()), bias_correct)
    x_singles, n = _excess_singles(covs, bias), covs.n_variables
    sums, failed = np.empty((3, len(orders), covs.n_datasets)), []
    for k in np.unique(orders):
        at = np.flatnonzero(orders == k)
        if batch.masks is None:
            idx = batch.indices
        else:  # each row's members, in ascending order
            idx = np.nonzero(batch.masks[at])[1].reshape(-1, k)
        try:
            joint, loo = _direct_logdets(covs, NpletBatch._trusted(n, idx))
        except NotPositiveDefinite as err:
            failed += [(int(at[g]), e) for g, e in err.coords]
            continue
        sums[:, at] = _excess_sums(joint, loo, idx, x_singles, bias)
    if failed:
        failed.sort()
        r, e = failed[0]
        raise NotPositiveDefinite(f"n-plet {batch.row_indices(r)} of dataset {e} not positive "
                                  "definite even after a jitter retry", coords=failed)
    return tuple(sums)


#: Cap, in bytes, on what a LogdetLattice keeps live at once: on the pivot
#: route, the raw log-determinant tables and the pivot states of two orders.
#: Orders past it walk, which keeps nothing between batches. A pivot
#: order's index rows (_lex_rows, C(N, k) * k bytes at N <= 256) ride
#: outside the cap: at most 3.7 MB at N=20, for orders k - 1 and k.
LATTICE_TABLE_BYTES = 64 * 2**20

#: Schur complements below BORDER_RTOL times the variance of their variable
#: are not trusted: the lattice's pivot route leaves such an n-plet (and
#: every n-plet built on it) NaN, and a set the walk or _BorderedSets
#: scores counts only while every member's relative Schur complement,
#: 1 / (inv_jj sigma_jj), clears it (_conditioned). Rows so excluded take
#: the direct path.
BORDER_RTOL = 1e-3


def _conditioned(members, live, diag, var):
    """Live slots (P, D, W) of sets members whose relative Schur complement,
    by inverse diagonal diag and variances var (N, D), clears BORDER_RTOL
    (dead slots, NaN and non-positive values do not)."""
    scale = diag * var[members].transpose(0, 2, 1)
    return live[:, None, :] & (scale > 0.0) & (scale * BORDER_RTOL <= 1.0)


def _leave_one_out(joint, diag, good):
    """(P, D, W) leave-one-out log-determinants joint + log diag of sets of
    inverse diagonal diag: NaN at the slots good does not mark (dead or
    untrusted), so a set with an untrusted member goes direct."""
    return joint[..., None] + np.log(np.where(good, diag, np.nan))


def _state_size(n: int, j: int) -> int:
    """Floats per dataset in the pivot states of every j-plet of n variables:
    sum over j-plets p of (n - 1 - max p)**2, which is 2 C(n, j + 2) + C(n, j + 1)
    (n**2 for the empty set)."""
    return 2 * math.comb(n, j + 2) + math.comb(n, j + 1)


class LogdetLattice:
    """Entropy-term sums of whole orders, scanned in turn.

    sums() gives, per (n-plet, dataset), the three sums every interaction
    measure is linear in (measures.hoi_from_sums): the excess joint entropy
    J, the sum S of the members' excess entropies and the sum L of the
    leave-one-out excess entropies, each excess entropy 1/2 logdet less its
    bias eta(k, T) (zero without bias correction). Every order takes one
    of two routes, fixed per order:

    - pivot: the Cholesky pivots of a sorted k-plet c are the Schur
      complements of its prefixes (Golub & Van Loan, Matrix Computations
      4.2), so logdet(c) = logdet(c[:-1]) + log s, with s the variance of
      c[-1] given c[:-1]. Table k holds the excess joint entropy of every
      k-plet c, X_k[c] = X_{k-1}[c[:-1]] + 1/2 log s - (eta_k - eta_{k-1}),
      at its colex rank sum_i C(c_i, i + 1) (the combinatorial number
      system), one column per dataset. The lattice carries, for every
      (k - 1)-plet p, its state: the covariance of the variables after
      max p conditioned on p, one array per largest member. open(k) reads
      the whole of table k from table k - 1 and those states' diagonals,
      and, when order k + 1 takes the route too, each child p + v's state
      from its parent's by one rank-one update. A batch then only reads
      tables (_gather): J from table k, L as k gathers of table k - 1 (a
      leave-one-out term of a k-plet is the joint term of a (k - 1)-plet, at rank
      sum_{p<j} C(c_p, p + 1) + sum_{p>j} C(c_p, p)), S as k gathers of the
      singles. No (B, D, K) array is formed. A pivot below
      BORDER_RTOL * sigma_vv is NaN, and so is everything built on it.
      open(k) also builds the order's n-plets, rows (_lex_rows), from
      order k - 1's, so a scan slices its batches from them.
    - walk: each batch borders down its own prefix tree (extend; Hager
      1989, SIAM Review 31:221) to raw log-determinants, summed by
      _excess_sums as the direct path sums them. No table is read or
      written, and memory is O(batch_size K^2 D).

    An order takes the pivot route when its two tables, C(N, k - 1) +
    C(N, k) floats per dataset, plus the states of the (k - 1)- and
    k-plets (_state_size) fit LATTICE_TABLE_BYTES, and every order below
    it does too: tables and states pass from one order to the next, from
    the empty set's (table 0, one zero entry, and sigma itself) up, so
    open(min_order) climbs from there (table 1 holds the singles, 1/2 log
    sigma_ii - eta_1). A batch of any other order walks, so a lattice
    that opens no order scores any batch. A scan opens orders in
    increasing order and evaluates every batch of an order before opening
    the next; greedy and annealing (through _BorderedSets) score on one
    that opens none.

    _checked is the engine's one fallback site, with one rule, after
    either route and for annealing's proposals: a row runs on the direct
    path, entropy_terms, when its J or L is NaN (a pivot fell below the
    floor, a bordered set has a member whose relative Schur complement
    does not clear BORDER_RTOL, or a Schur complement is not positive).
    Its sums are then compute_hoi_batch's, bit for bit, or it raises
    compute_hoi_batch's NotPositiveDefinite coordinates. Only the n-plets
    that fail go direct, never the rest of their batch, so which rows do
    does not depend on batch_size.
    """

    def __init__(self, covs: CovSet, min_order: int, max_order: int, bias_correct: bool):
        self.covs = covs
        self.bias_correct = bias_correct
        n, d = covs.n_variables, covs.n_datasets
        self.sigma = covs.stacked()
        self.var = np.diagonal(self.sigma, axis1=-2, axis2=-1).T  # (N, D)
        self.bias = _bias_offsets(covs, max_order, bias_correct)
        self.x_singles = _excess_singles(covs, self.bias)
        self.singles = np.ascontiguousarray(self.x_singles.T)  # (N, D), gathered by row
        cap = LATTICE_TABLE_BYTES // (8 * d)
        self.pivots = set()
        for k in range(1, max_order + 1):
            tables = math.comb(n, k - 1) + math.comb(n, k)
            if tables + _state_size(n, k - 1) + _state_size(n, k) > cap:
                break
            if k >= min_order:
                self.pivots.add(k)
        self.binom = _binomial_table(n, max(self.pivots, default=0))  # read by pivot orders only
        self.tables = {}
        self.states = None  # pivot states of the open order's (k - 1)-plets
        self.rows = None  # the open pivot order's n-plets (_lex_rows)

    def open(self, k: int) -> None:
        """Make order k current: a pivot order builds table k and rows, its
        (k, C(N, k)) n-plets in lexicographic order, climbing one order at
        a time from the highest table it holds, k - 1 or, if it holds none,
        table 0, the empty set; a walk order drops every table and rows."""
        self.tables = {m: t for m, t in self.tables.items() if m == k - 1 and k in self.pivots}
        if k not in self.pivots:
            self.rows = None
            return
        n, d = self.covs.n_variables, self.covs.n_datasets
        if not self.tables:  # the empty set, with sigma as its pivot state
            self.tables[0], self.states = np.zeros((1, d)), {-1: self.sigma[None]}
            self.rows = np.zeros((0, 1), dtype=np.min_scalar_type(n - 1))
        for j in range(max(self.tables) + 1, k + 1):
            self.tables = {j - 1: self.tables[j - 1]}
            self.rows = _lex_rows(self.rows, n)
            carry = j < k or k + 1 in self.pivots
            self.tables[j] = self._descend(self.tables[j - 1], j, carry)

    def _descend(self, table: np.ndarray, j: int, carry: bool) -> np.ndarray:
        """Table j from table j - 1 and the pivot states of the (j - 1)-plets,
        which it consumes; self.states becomes those of the j-plets when
        carry, else None.

        States are grouped by largest member m (-1 for the empty set): group
        m is a (C(m, j - 2), D, N - 1 - m, N - 1 - m) array in colex order,
        the covariance of variables m + 1..N - 1 given each (j - 1)-plet p.
        The j-plets with largest member v are p + v for every p with
        max p < v, ranks C(v, j) on, in the colex order of p: so their
        entries are table[:C(v, j - 1)] plus 1/2 log of v's pivots less the
        bias step, pivots read from groups m < v in turn, and their states
        eliminate v from the same groups. Children are built from the
        largest v down, so group v - 1 is dropped as soon as child v is
        built: no later child reads it."""
        n, d = self.covs.n_variables, self.covs.n_datasets
        step = self.bias[:, j] - self.bias[:, j - 1]
        out = np.empty((math.comb(n, j), d))
        children = {}
        for v in range(n - 1, j - 2, -1):
            parents = [(v - m - 1, g) for m, g in self.states.items() if m < v]
            piv = np.concatenate([g[:, :, a, a] for a, g in parents])
            piv = np.where(piv >= BORDER_RTOL * self.var[v], piv, np.nan)
            lo = math.comb(v, j)
            out[lo:lo + len(piv)] = table[:len(piv)] + (0.5 * np.log(piv) - step)
            if carry and v < n - 1:
                child = np.empty((len(piv), d, n - 1 - v, n - 1 - v))
                at = 0
                for a, g in parents:
                    col = g[:, :, a + 1:, a]
                    scaled = col / piv[at:at + len(g), :, None]
                    child[at:at + len(g)] = (g[:, :, a + 1:, a + 1:]
                                             - col[..., :, None] * scaled[..., None, :])
                    at += len(g)
                children[v] = child
            self.states.pop(v - 1, None)  # no later child reads group v - 1
        self.states = dict(sorted(children.items())) if carry else None
        return out

    def sums(self, batch: NpletBatch):
        """((B, D) sums J, S, L, rows on the direct path) of a fixed-order
        batch: read from the tables when its order is the pivot order
        open() made current, else walked."""
        k, idx = batch.order, batch.indices
        if k in self.tables and k - 1 in self.tables:
            return self._checked(self._gather(idx), idx)
        return self.extend(idx[:, :-1], None, idx[:, -1], idx)

    def extend(self, parents: np.ndarray, parent, add: np.ndarray, rows: np.ndarray):
        """((B, D) sums J, S, L, rows on the direct path) of the sorted
        (B, K) rows, row b parents[parent[b]] plus variable add[b]
        (parent None: row b is parents[b] plus add[b], so rows are already
        in that slot order).

        The (P, K - 1) parents come from one _prefix_descent. Row c's joint
        term is its parent's plus log s, and leaving out member j gives
        logdet(c) + log (sigma_c^-1)_jj, or the parent's for add; S and L
        add the parent's members in turn, then add. A row with a member
        that _conditioned does not trust is NaN, so it goes direct."""
        logdet, inv, at = _prefix_descent(self.sigma, parents)
        if parent is None:
            members = rows
        else:
            at = at[parent]
            members = np.concatenate([np.take(parents, parent, axis=0), add[:, None]], axis=1)
        before, inv = np.take(logdet, at, axis=0), np.take(inv, at, axis=0)
        joint, diag, _, s = _border(self.sigma, members[:, :-1], add, inv, before)
        diag = np.concatenate([diag, 1.0 / s[..., None]], axis=-1)
        good = _conditioned(members, np.ones(members.shape, dtype=bool), diag, self.var)
        loo = _leave_one_out(joint, diag, good)
        loo[..., -1] = np.where(good[..., -1], before, np.nan)  # c without add
        sums = _excess_sums(joint, loo, members, self.x_singles, self.bias)
        return self._checked(sums, rows)

    def _gather(self, idx: np.ndarray):
        """(B, D) J, S and L of a batch idx of a pivot order, read from the tables."""
        k = idx.shape[1]
        rank, loo_rank = _ranks(idx, self.binom)
        below, cols, loo_rank = self.tables[k - 1], idx.T, loo_rank.T  # (K, B) columns
        joint = np.take(self.tables[k], rank, axis=0)
        singles, loo = np.take(self.singles, cols[0], axis=0), np.take(below, loo_rank[0], axis=0)
        for j in range(1, k):
            singles += np.take(self.singles, cols[j], axis=0)
            loo += np.take(below, loo_rank[j], axis=0)
        return joint, singles, loo

    def _checked(self, sums, members: np.ndarray, live=None):
        """((B, D) J, S, L, rows on the direct path) after the one fallback
        check: a row whose J or L is NaN goes to entropy_terms as a mask
        row, its sums then compute_hoi_batch's by construction. Row r's set
        is members[r] at the slots live[r] marks (every slot without live).
        NotPositiveDefinite coordinates are rows of members."""
        joint, singles, loo = sums
        if not (np.isnan(joint).any() or np.isnan(loo).any()):  # the common case, tested fast
            return sums, 0
        rows = np.flatnonzero(np.isnan(joint).any(axis=1) | np.isnan(loo).any(axis=1))
        live = np.ones(members.shape, dtype=bool) if live is None else live
        at, slots = np.nonzero(live[rows])
        n = self.covs.n_variables
        masks = np.zeros((len(rows), n), dtype=bool)
        masks[at, members[rows[at], slots]] = True
        try:
            joint[rows], singles[rows], loo[rows] = entropy_terms(
                self.covs, NpletBatch(n, masks=masks, check_unique=False), self.bias_correct)
        except NotPositiveDefinite as err:
            raise NotPositiveDefinite(
                str(err), coords=[(int(rows[r]), d) for r, d in err.coords]) from None
        return sums, rows.size


#: accepted bordered moves after which a _BorderedSets row is rebuilt
_REFRESH_MOVES = 50


@dataclass
class _Proposal:
    """Sets one variable away from the stored _BorderedSets rows, one per
    row, scored.

    members and live (P, W) hold each set in slots, logdet (P, D) and loo
    (P, D, W) its bordered joint and leave-one-out log-determinants, sums
    its (P, D) sums J, S and L after the lattice's fallback check, and
    direct (P,) marks the sets that took the direct path. inv (P, D, W, W)
    is each inverse before its add, and grow (into, slot, z, s) the adding
    rows, their slots and _border's z and s, from which accept grows it.
    """

    members: np.ndarray
    live: np.ndarray
    logdet: np.ndarray
    loo: np.ndarray
    sums: tuple
    direct: np.ndarray
    inv: np.ndarray
    grow: tuple


class _BorderedSets:
    """Annealing's chains: variable sets stored with the inverses and
    log-determinants of their sub-covariances, moved one variable at a
    time, scored through a LogdetLattice's covariances, bias and fallback.

    Row r keeps its members in the slots of a W-wide row (live marks the
    used ones), sigma_d[members, members]^-1 in the matching slots of a
    (D, W, W) array, zero elsewhere, and its (D,) log-determinants.
    propose scores the set one dropped and/or added variable away from
    every stored row by bordering (_unborder, _border), with leave-one-out
    terms from the bordered inverse diagonal. accept stores moved
    proposals, grows their inverses by one rank-one term, and rebuilds a
    row every _REFRESH_MOVES accepted moves (refresh, by _prefix_descent:
    nothing here is factored).

    The trust rule: a proposal is untrusted when its set or the stored set
    it starts from has a member whose relative Schur complement is below
    BORDER_RTOL (a non-positive one, which leaves NaN, included). Its
    leave-one-out terms are then NaN, so the lattice's _checked scores it
    on the direct path from its mask, as compute_hoi_batch would. Such a
    proposal, if accepted, is rebuilt.
    """

    def __init__(self, lattice: LogdetLattice, members: np.ndarray, live: np.ndarray,
                 width: int):
        """Store the sets of slot rows members at live in W = width slots,
        as many as the largest set a move makes."""
        self.lattice = lattice
        b, d = len(members), lattice.covs.n_datasets
        self.members = np.zeros((b, width), dtype=np.int64)
        self.live = np.zeros((b, width), dtype=bool)
        self.inv = np.zeros((b, d, width, width))
        self.logdet = np.zeros((b, d))
        self.moves = np.zeros(b, dtype=np.int64)
        self.refresh(np.arange(b), members, live)

    def refresh(self, rows: np.ndarray, members: np.ndarray, live: np.ndarray) -> None:
        """Build the sets members[i] at live[i] from scratch into stored
        rows rows[i], sorted into the leading slots, one prefix descent
        per order."""
        n = self.lattice.covs.n_variables
        members = np.sort(np.where(live, members, n), axis=1)
        live = members < n
        orders = live.sum(axis=1)
        self.members[rows], self.live[rows], self.inv[rows], self.moves[rows] = 0, False, 0.0, 0
        for k in np.unique(orders):
            at, idx = rows[orders == k], members[orders == k, :k]
            logdet, inv, node = _prefix_descent(self.lattice.sigma, idx)
            self.logdet[at], self.inv[at, :, :k, :k] = logdet[node], inv[node]
            self.members[at, :k], self.live[at, :k] = idx, True

    def propose(self, drop: np.ndarray, add: np.ndarray) -> _Proposal:
        """Every stored set r without variable drop[r], then with variable
        add[r] (-1: neither), scored."""
        lat = self.lattice
        stored = _conditioned(self.members, self.live,
                              np.diagonal(self.inv, axis1=-2, axis2=-1), lat.var)
        healthy = (stored == self.live[:, None, :]).all(axis=(1, 2))
        members, live = self.members.copy(), self.live.copy()
        logdet, inv = self.logdet.copy(), self.inv.copy()
        out = np.flatnonzero(drop >= 0)
        j = np.argmax(live[out] & (members[out] == drop[out, None]), axis=1)
        logdet[out], inv[out] = _unborder(np.take(inv, out, axis=0), logdet[out], j)
        live[out, j] = False
        into = np.flatnonzero(add >= 0)
        assert not live[into].all(axis=1).any(), "an add to a full set"
        diag = np.diagonal(inv, axis1=-2, axis2=-1).copy()
        slot, v, before = np.argmin(live[into], axis=1), add[into], logdet[into]
        logdet[into], diag[into], z, s = _border(lat.sigma, members[into], v,
                                                  np.take(inv, into, axis=0), before)
        diag[into, :, slot] = 1.0 / s
        members[into, slot], live[into, slot] = v, True
        good = _conditioned(members, live, diag, lat.var) & healthy[:, None, None]
        loo = _leave_one_out(logdet, diag, good)
        loo[into, :, slot] = np.where(good[into, :, slot], before, np.nan)  # S + v without v is S
        direct = (good != live[:, None, :]).any(axis=(1, 2))
        sums = _excess_sums(logdet, loo, members, lat.x_singles, lat.bias, live=live)
        sums, _ = lat._checked(sums, members, live)
        return _Proposal(members, live, logdet, loo, sums, direct, inv, (into, slot, z, s))

    def accept(self, p: _Proposal, moved: np.ndarray) -> None:
        """Store every moved proposal in its row."""
        renew = moved & (p.direct | (self.moves + 1 >= _REFRESH_MOVES))
        keep = moved & ~renew
        self.members[keep], self.live[keep] = p.members[keep], p.live[keep]
        self.logdet[keep], self.inv[keep] = p.logdet[keep], p.inv[keep]
        self.moves[keep] += 1
        into, slot, z, s = (a[keep[p.grow[0]]] for a in p.grow)
        self.inv[into] = _grow(np.take(self.inv, into, axis=0), z, s, slot)
        if renew.any():
            self.refresh(np.flatnonzero(renew), p.members[renew], p.live[renew])
