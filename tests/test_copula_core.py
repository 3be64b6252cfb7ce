import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

import reference as ref
from hoi import (
    CovarianceMatrix,
    DataMatrix,
    DegenerateColumn,
    InsufficientSamples,
    InvalidData,
    NORMAL_ENTROPY,
    copula_entropy,
    copula_transform,
    entropy_bias,
    estimate_covariance,
    gaussian_entropy_nats,
    rank_columns,
)
from hoi.copula_core import _digamma, _normal_grid

# frozen from tests/reference.py (slogdet / plain-digamma routes)
PAIR_RHO_HALF_ENTROPY = 2.694036030183455
BIAS_1_2 = -0.6351814227307391
NDTRI_QUARTER = -0.6744897501960817


def test_unit_normal_entropy_constant():
    assert NORMAL_ENTROPY == pytest.approx(0.5 * (math.log(2 * math.pi) + 1), abs=1e-16)


def test_gaussian_entropy_identity_dimensions():
    for n in (1, 2, 5, 17):
        h = gaussian_entropy_nats(np.eye(n))
        assert not h.bias_corrected
        assert h.nats == pytest.approx(n * NORMAL_ENTROPY, abs=1e-12)


def test_gaussian_entropy_matches_slogdet_route():
    assert gaussian_entropy_nats(np.array([[1.0, 0.5], [0.5, 1.0]])).nats == pytest.approx(
        PAIR_RHO_HALF_ENTROPY, abs=1e-13
    )
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T + 6 * np.eye(6)
        assert gaussian_entropy_nats(sigma).nats == pytest.approx(ref.entropy(sigma), rel=1e-12)


def test_gaussian_entropy_rejects_indefinite():
    from hoi import NotPositiveDefinite

    with pytest.raises(NotPositiveDefinite):
        gaussian_entropy_nats(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_rank_columns_matches_double_argsort():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 3))
    x[::5, 1] = 0.25  # ties
    got = rank_columns(DataMatrix(x))
    for j in range(3):
        np.testing.assert_array_equal(got[:, j], ref.ranks(x[:, j]))
    # the layout fixes the BLAS route, and so the last bits, of the covariance
    assert got.flags.f_contiguous and got.dtype == np.int64


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 300),
       st.lists(st.sampled_from(("ints", "zeros", "signed", "free")), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_rank_columns_equal_the_stable_reference_on_tied_columns(t, kinds, seed):
    # ties, -0.0 == 0.0 included, break by row order, so the ranks are the
    # reference's whatever the columns hold
    rng = np.random.default_rng(seed)

    def column(kind):
        if kind == "ints":
            return rng.integers(-2, 3, t).astype(float)
        if kind == "zeros":
            return rng.choice([-0.0, 0.0, 1.0], t)
        col = rng.standard_normal(t)
        if kind == "signed":  # -0.0 and 0.0 are its only tie
            col[rng.choice(t, 2, replace=False)] = rng.permutation([-0.0, 0.0])
        return col

    x = np.stack([column(kind) for kind in kinds], axis=1)
    assume((x.max(axis=0) > x.min(axis=0)).all())  # no column is constant
    got = rank_columns(x)
    for j in range(x.shape[1]):
        np.testing.assert_array_equal(got[:, j], ref.ranks(x[:, j]))
    assert got.flags.f_contiguous and got.dtype == np.int64


def test_rank_ties_break_by_first_occurrence():
    got = rank_columns(DataMatrix(np.array([[2.0], [1.0], [2.0], [1.0]])))
    np.testing.assert_array_equal(got[:, 0], [3, 1, 4, 2])


def test_copula_transform_quantiles():
    # T=3 gives ranks {1,2,3} -> quantiles {1/4, 1/2, 3/4}
    z = copula_transform(DataMatrix(np.array([[0.1], [0.5], [0.9]]))).values
    np.testing.assert_allclose(z[:, 0], [NDTRI_QUARTER, 0.0, -NDTRI_QUARTER], atol=1e-15)


def test_copula_transform_matches_reference():
    # production quantiles come from the stdlib's AS241 and the oracle's from
    # scipy's ndtri: the rank structure agrees exactly, the values to ulps
    rng = np.random.default_rng(2)
    x = rng.standard_normal((100, 4)) ** 3
    got, want = copula_transform(DataMatrix(x)).values, ref.copula(x)
    np.testing.assert_array_equal(np.argsort(got, axis=0, kind="stable"),
                                  np.argsort(want, axis=0, kind="stable"))
    np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)


def test_copula_transform_reuses_one_read_only_grid_per_sample_count():
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((37, 3)), rng.standard_normal((37, 5))
    first = copula_transform(DataMatrix(x)).values
    hits = _normal_grid.cache_info().hits
    second = copula_transform(DataMatrix(y)).values
    assert _normal_grid.cache_info().hits == hits + 1
    grid = _normal_grid(37)
    # bitwise the grid built afresh and indexed by rank; the output is the
    # caller's to write
    fresh = np.array([NormalDist().inv_cdf(i / 38) for i in range(1, 38)])
    np.testing.assert_array_equal(first, fresh[rank_columns(DataMatrix(x)) - 1])
    np.testing.assert_array_equal(second, fresh[rank_columns(DataMatrix(y)) - 1])
    second[0, 0] = 0.0
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_copula_transform_invariant_under_monotone_maps(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((31, 2))
    z = copula_transform(DataMatrix(x)).values
    for f in (np.exp, np.arctan, lambda v: 3.0 * v - 7.0, lambda v: v**3):
        np.testing.assert_array_equal(copula_transform(DataMatrix(f(x))).values, z)


def test_data_matrix_validation():
    with pytest.raises(InvalidData):
        DataMatrix(np.zeros(5))
    with pytest.raises(InvalidData):
        DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0], [4.0, 5.0]]))
    with pytest.raises(InvalidData):
        DataMatrix(np.array([[1.0, np.inf], [2.0, 3.0], [4.0, 5.0]]))
    with pytest.raises(InsufficientSamples):
        DataMatrix(np.ones((2, 3)))
    with pytest.raises(DegenerateColumn):
        DataMatrix(np.column_stack([np.arange(5.0), np.full(5, 2.0)]))
    with pytest.raises(InvalidData):
        DataMatrix(np.random.default_rng(0).standard_normal((5, 2)), column_names=["a"])


def test_covariance_matrix_validation():
    with pytest.raises(InvalidData):
        CovarianceMatrix(np.ones((2, 3)))
    with pytest.raises(InvalidData):
        CovarianceMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))
    with pytest.raises(InvalidData):
        CovarianceMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(InvalidData):
        CovarianceMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_estimate_covariance_matches_numpy_cov():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    got = estimate_covariance(DataMatrix(x))
    np.testing.assert_allclose(got.sigma, np.cov(x.T), rtol=1e-12)
    np.testing.assert_array_equal(got.sigma, got.sigma.T)
    assert got.n_samples_used == 50


def test_entropy_bias_frozen_value():
    assert entropy_bias(1, 2) == pytest.approx(BIAS_1_2, abs=1e-15)


def test_entropy_bias_matches_plain_digamma_loop():
    for n in range(1, 11):
        for t in (n + 1, 50, 937):
            assert entropy_bias(n, t) == pytest.approx(ref.entropy_bias(n, t), abs=1e-13)


def test_digamma_matches_scipy_at_every_half_integer():
    # the bias table evaluates psi((T - j) / 2): every m / 2 up to T = 2e6
    x = np.arange(1, 2_000_001) / 2.0
    np.testing.assert_allclose(_digamma(x), digamma(x), rtol=0, atol=5e-15)


def test_entropy_bias_is_negative_and_shrinks_with_samples():
    assert entropy_bias(3, 20) < 0
    assert entropy_bias(3, 20) < entropy_bias(3, 2000) < 0


def test_entropy_bias_argument_validation():
    with pytest.raises(InvalidData):
        entropy_bias(0, 10)
    with pytest.raises(InsufficientSamples):
        entropy_bias(5, 5)


def test_copula_entropy_near_truth_for_normal_data():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 3))
    est = copula_entropy(DataMatrix(x))
    assert est.bias_corrected
    assert abs(est.nats - 3 * NORMAL_ENTROPY) < 0.05
    raw = copula_entropy(DataMatrix(x), bias_correct=False)
    assert raw.nats < est.nats  # corrector is subtracted and negative
