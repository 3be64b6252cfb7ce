"""Gaussian-copula entropy estimation.

Transforms continuous data to Gaussian-copula space, estimates covariance,
and computes Gaussian differential entropies with finite-sample bias
corrections. All entropies are in nats (natural logarithm throughout).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, psi
from scipy.stats import rankdata

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
    permutation of 1..T.
    """
    d = _as_data(data)
    return rankdata(d.values, method="ordinal", axis=0).astype(np.int64)


def copula_transform(data) -> DataMatrix:
    """Map each column through rank / (T + 1) to standard-normal quantiles.

    Every output column is a permutation of the fixed quantile grid
    ndtri(1/(T+1)), ..., ndtri(T/(T+1)), so the result is invariant under
    strictly increasing per-column transformations of the input.
    """
    d = _as_data(data)
    u = rank_columns(d) / (d.n_samples + 1.0)
    return DataMatrix(ndtri(u), column_names=d.column_names)


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


def _factor_with_jitter(mats: np.ndarray, factor) -> tuple:
    """factor(mats) for a (..., K, K) stack, with one jitter retry per failure.

    factor maps a stack of matrices to a tuple of per-matrix arrays and
    raises LinAlgError when any of them is not positive definite. If the
    batched call fails, every matrix is factored on its own and a failing
    one is retried once as m + eps * I with eps = 1e-10 * trace(m) / K, so
    every healthy result stays bit-identical to the batched call. Matrices
    that still fail raise NotPositiveDefinite with their coordinates in
    the leading axes.
    """
    try:
        return factor(mats)
    except np.linalg.LinAlgError:
        pass
    lead = mats.shape[:-2]
    k = mats.shape[-1]
    outs = None
    bad = []
    for coord in np.ndindex(lead):
        m = mats[coord]
        try:
            res = factor(m)
        except np.linalg.LinAlgError:
            try:
                res = factor(m + 1e-10 * np.trace(m) / k * np.eye(k))
            except np.linalg.LinAlgError:
                bad.append(coord)
                continue
        if outs is None:
            outs = tuple(np.empty(lead + np.shape(r)) for r in res)
        for out, r in zip(outs, res):
            out[coord] = r
    if bad:
        raise _not_positive_definite(bad)
    return outs


def _not_positive_definite(coords: list) -> NotPositiveDefinite:
    """The error for matrices that failed even after the jitter retry."""
    where = f", first at {coords[0]}" if coords[0] else ""
    return NotPositiveDefinite(
        f"{len(coords)} matrix(es) not positive definite even after a "
        f"jitter retry{where}",
        coords=coords,
    )


def _chol_with_jitter(sigma: np.ndarray) -> np.ndarray:
    """Cholesky factor of one matrix under _factor_with_jitter's rule."""
    return _factor_with_jitter(sigma, lambda m: (np.linalg.cholesky(m),))[0]


def _cholesky_logdet(mats: np.ndarray) -> np.ndarray:
    """Log-determinants of a (..., K, K) stack from Cholesky factors;
    LinAlgError if any matrix is not positive definite."""
    chol = np.linalg.cholesky(mats)
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def gaussian_entropy_nats(cov) -> EntropyValue:
    """Entropy of N(0, sigma): 0.5 * [n * log(2 pi e) + logdet(sigma)].

    The log-determinant comes from a Cholesky factorization under
    _factor_with_jitter's rule, never from a raw determinant.
    """
    c = _as_cov(cov)
    logdet = _factor_with_jitter(c.sigma, lambda m: (_cholesky_logdet(m),))[0]
    nats = 0.5 * (c.n_variables * _LOG_2PI_E + logdet)
    return EntropyValue(nats=float(nats), bias_corrected=False)


def entropy_bias(n: int, t: int) -> float:
    """Finite-sample bias eta(n, T) of the Gaussian entropy estimate.

    eta(n, T) = 0.5 * [n * log(2 / (T-1)) + sum_{j=1..n} psi((T-j)/2)]
    where psi is the digamma function. Always negative for finite T and
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
        eta[1:] = 0.5 * (j * np.log(2.0 / (t - 1)) + np.cumsum(psi((t - j) / 2.0)))
    return eta


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
