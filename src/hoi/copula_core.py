"""Gaussian-copula entropy estimation.

Transforms continuous data to Gaussian-copula space, estimates covariance,
and computes Gaussian differential entropies with finite-sample bias
corrections. All entropies are in nats (natural logarithm throughout).
Needs numpy and the standard library only: normal quantiles come from
statistics.NormalDist (Wichura's AS241) and digamma from a short series.
"""

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateColumn,
    InsufficientSamples,
    InvalidData,
    NotPositiveDefinite,
)

#: log(2*pi*e), so that H(N(0, sigma)) = 0.5 * (n * _LOG_2PI_E + logdet(sigma))
_LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)

#: differential entropy of a univariate standard normal, 0.5 * log(2*pi*e)
NORMAL_ENTROPY = 0.5 * _LOG_2PI_E


@dataclass
class DataMatrix:
    """T samples by N variables of continuous observations.

    Parameters
    ----------
    values : (T, N) array
        One row per sample, one column per variable. Must be finite,
        with T >= 3 and no constant column.
    column_names : list of str, optional
        Variable labels, length N.
    """

    values: np.ndarray
    column_names: list | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise InvalidData(f"data must be 2-D (samples x variables), got shape {v.shape}")
        t, n = v.shape
        if n < 1:
            raise InvalidData("need at least one variable")
        if t < 3:
            raise InsufficientSamples(f"need at least 3 samples, got {t}")
        if not np.isfinite(v).all():
            raise InvalidData("data contains non-finite entries")
        constant = np.flatnonzero(v.max(axis=0) == v.min(axis=0))
        if constant.size:
            raise DegenerateColumn(f"constant column(s): {constant.tolist()}")
        if self.column_names is not None and len(self.column_names) != n:
            raise InvalidData(
                f"got {len(self.column_names)} column names for {n} variables"
            )
        self.values = v

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]


@dataclass
class CovarianceMatrix:
    """N x N covariance matrix.

    n_samples_used is the sample count behind the estimate, or 0 for an
    analytic (population) covariance. block_slices optionally records
    (start, stop) boundaries of independent blocks for bookkeeping.
    """

    sigma: np.ndarray
    n_samples_used: int = 0
    block_slices: tuple | None = None

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise InvalidData(f"covariance must be square, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise InvalidData("covariance contains non-finite entries")
        if not np.allclose(s, s.T, rtol=1e-12, atol=1e-14):
            raise InvalidData("covariance is not symmetric")
        if (np.diagonal(s) <= 0.0).any():
            raise InvalidData("covariance diagonal must be strictly positive")
        self.sigma = s
        self.n_samples_used = int(self.n_samples_used)

    @property
    def n_variables(self) -> int:
        return self.sigma.shape[0]


@dataclass
class CovSet:
    """D covariance matrices over the same N variables."""

    covs: list
    names: list | None = None

    def __post_init__(self):
        if not self.covs:
            raise InvalidData("CovSet needs at least one covariance")
        if not all(isinstance(c, CovarianceMatrix) for c in self.covs):
            raise InvalidData("CovSet entries must be CovarianceMatrix")
        n = self.covs[0].n_variables
        if any(c.n_variables != n for c in self.covs):
            raise InvalidData("all covariances in a CovSet must have the same N")
        if self.names is not None and len(self.names) != len(self.covs):
            raise InvalidData("names length does not match dataset count")

    @property
    def n_variables(self) -> int:
        return self.covs[0].n_variables

    @property
    def n_datasets(self) -> int:
        return len(self.covs)

    def stacked(self) -> np.ndarray:
        """All covariances as one (D, N, N) array."""
        return np.stack([c.sigma for c in self.covs])

    def samples_used(self) -> np.ndarray:
        """(D,) sample counts; 0 marks analytic covariances."""
        return np.array([c.n_samples_used for c in self.covs], dtype=np.int64)


@dataclass(frozen=True)
class EntropyValue:
    """A differential entropy in nats."""

    nats: float
    bias_corrected: bool = False


def _as_data(data) -> DataMatrix:
    return data if isinstance(data, DataMatrix) else DataMatrix(np.asarray(data))


def _as_cov(cov) -> CovarianceMatrix:
    return cov if isinstance(cov, CovarianceMatrix) else CovarianceMatrix(np.asarray(cov))


def rank_columns(data) -> np.ndarray:
    """Per-column ranks in 1..T.

    Ties are broken by row order (stable), so every column is an exact
    permutation of 1..T. The array is column-major: its layout decides
    the BLAS route of estimate_covariance's product, and with it the last
    bits of every covariance the CLI writes.
    """
    d = _as_data(data)
    order = np.argsort(d.values, axis=0, kind="stable")
    ranks = np.empty(d.values.shape, dtype=np.int64, order="F")
    np.put_along_axis(ranks, order, np.arange(1, d.n_samples + 1)[:, None], axis=0)
    return ranks


def copula_transform(data) -> DataMatrix:
    """Map each column through rank / (T + 1) to standard-normal quantiles.

    The T-point grid Phi^-1(1/(T+1)), ..., Phi^-1(T/(T+1)) is evaluated
    once per T (_normal_grid) with NormalDist.inv_cdf (Wichura's AS241,
    Applied Statistics 37:477, 1988) and indexed by rank, which keeps
    rank_columns' column-major layout. Every output column is a permutation
    of the grid, so the result is invariant under strictly increasing
    per-column transformations of the input.
    """
    d = _as_data(data)
    return DataMatrix(_normal_grid(d.n_samples)[rank_columns(d) - 1],
                      column_names=d.column_names)


@functools.lru_cache(maxsize=16)
def _normal_grid(t: int) -> np.ndarray:
    """The read-only grid Phi^-1(i / (t + 1)), i = 1..t, built once per t."""
    inv_cdf = NormalDist().inv_cdf
    grid = np.array([inv_cdf(i / (t + 1)) for i in range(1, t + 1)])
    grid.flags.writeable = False
    return grid


def estimate_covariance(data) -> CovarianceMatrix:
    """Unbiased sample covariance (divisor T - 1), symmetrized.

    The caller is expected to pass copula-transformed data unless the
    input is known to be Gaussian already.
    """
    d = _as_data(data)
    t = d.n_samples
    if t < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {t}")
    x = d.values - d.values.mean(axis=0)
    s = (x.T @ x) / (t - 1)
    return CovarianceMatrix(0.5 * (s + s.T), n_samples_used=t)


def _cholesky_or_nan(mats: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (..., K, K) stack. If the batched call fails,
    the matrices are factored one by one and only the failing ones are NaN,
    so no factor depends on the batch it came in."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        pass
    chol = np.full(mats.shape, np.nan)
    for coord in np.ndindex(mats.shape[:-2]):
        try:
            chol[coord] = np.linalg.cholesky(mats[coord])
        except np.linalg.LinAlgError:
            pass
    return chol


def _jittered_cholesky(mats: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (..., K, K) stack, the one place that adds jitter.

    A matrix that _cholesky_or_nan leaves NaN is retried once as
    m + eps * I with eps = 1e-10 * trace(m) / K; every other factor is
    bit-identical to the batched call. Matrices that still fail raise
    NotPositiveDefinite with their coordinates in the leading axes.
    """
    chol = _cholesky_or_nan(mats)
    failed = np.isnan(chol[..., 0, 0])
    if failed.any():
        m = mats[failed]
        k = mats.shape[-1]
        eps = 1e-10 * np.trace(m, axis1=-2, axis2=-1) / k
        chol[failed] = _cholesky_or_nan(m + eps[:, None, None] * np.eye(k))
        bad = np.argwhere(np.isnan(chol[..., 0, 0]))
        if len(bad):
            raise _not_positive_definite([tuple(int(i) for i in c) for c in bad])
    return chol


def _not_positive_definite(coords: list) -> NotPositiveDefinite:
    """The error for matrices that failed even after the jitter retry."""
    where = f", first at {coords[0]}" if coords[0] else ""
    return NotPositiveDefinite(
        f"{len(coords)} matrix(es) not positive definite even after a "
        f"jitter retry{where}",
        coords=coords,
    )


def _factor_logdet(chol: np.ndarray) -> np.ndarray:
    """2 * sum(log diag L) of a (..., K, K) stack of Cholesky factors L."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def gaussian_entropy_nats(cov) -> EntropyValue:
    """Entropy of N(0, sigma): 0.5 * [n * log(2 pi e) + logdet(sigma)].

    The log-determinant is 2 * sum(log diag L) of the Cholesky factor L
    from _jittered_cholesky, never a raw determinant.
    """
    c = _as_cov(cov)
    logdet = _factor_logdet(_jittered_cholesky(c.sigma))
    nats = 0.5 * (c.n_variables * _LOG_2PI_E + logdet)
    return EntropyValue(nats=float(nats), bias_corrected=False)


def entropy_bias(n: int, t: int) -> float:
    """Finite-sample bias eta(n, T) of the Gaussian entropy estimate.

    eta(n, T) = 0.5 * [n * log(2 / (T-1)) + sum_{j=1..n} psi((T-j)/2)]
    where psi is the digamma function (Ince et al. 2017, Hum. Brain Mapp.
    38:1541), evaluated by _digamma. Always negative for finite T and
    vanishing as T grows; the corrected entropy is raw - eta.
    """
    if n < 1:
        raise InvalidData(f"dimension must be >= 1, got {n}")
    return float(_bias_table(t, n)[n])


def _bias_table(t: int, k_max: int) -> np.ndarray:
    """eta(k, T) for every k in 0..k_max, with eta(0, T) = 0."""
    if t <= k_max:
        raise InsufficientSamples(
            f"bias correction needs T > order, got T={t}, max order={k_max}"
        )
    eta = np.zeros(k_max + 1)
    if k_max >= 1:
        j = np.arange(1, k_max + 1)
        eta[1:] = 0.5 * (j * np.log(2.0 / (t - 1)) + np.cumsum(_digamma((t - j) / 2.0)))
    return eta


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0, to ~1e-15 absolute at the bias table's x = m/2.

    Upward recurrence psi(x) = psi(x + 1) - 1/x until x >= 12, then the
    asymptotic series ln x - 1/(2x) - sum B_2k / (2k x^2k) through x^-14
    (Abramowitz & Stegun 6.3.5 and 6.3.18).
    """
    x = np.array(x, dtype=np.float64)
    acc = np.zeros_like(x)
    while (small := x < 12.0).any():
        acc[small] -= 1.0 / x[small]
        x[small] += 1.0
    r = 1.0 / (x * x)
    tail = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * (691 / 32760 - r / 12))))))
    return acc + np.log(x) - 0.5 / x - tail


def copula_entropy(data, bias_correct: bool = True) -> EntropyValue:
    """Entropy of the Gaussian-copula model of the data, in nats.

    Chains copula_transform, estimate_covariance and gaussian_entropy_nats,
    subtracting the finite-sample bias when requested.
    """
    d = _as_data(data)
    cov = estimate_covariance(copula_transform(d))
    h = gaussian_entropy_nats(cov).nats
    if not bias_correct:
        return EntropyValue(nats=h, bias_corrected=False)
    return EntropyValue(
        nats=h - entropy_bias(d.n_variables, d.n_samples), bias_corrected=True
    )
