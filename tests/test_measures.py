import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from hoi import (
    CovarianceMatrix,
    CovSet,
    InvalidNplet,
    NpletBatch,
    compute_hoi_batch,
    pairwise_mi,
    r_system_cov,
    s_system_cov,
)
from hoi.measures import hoi_from_sums

# closed forms for the redundant system with two unit-weight sources:
# tc = log 2, dtc = log(3)/2, o = log(4/3)/2, s = log 2 + log(3)/2
R2_TC = math.log(2.0)
R2_DTC = 0.5 * math.log(3.0)
R2_O = 0.5 * math.log(4.0 / 3.0)


def whole(cov):
    covs = CovSet([cov])
    n = cov.n_variables
    batch = NpletBatch(n, indices=np.arange(n)[None, :])
    return compute_hoi_batch(covs, batch)


def test_redundant_two_source_closed_forms():
    b = whole(r_system_cov(2, 1.0))
    assert b.tc[0, 0] == pytest.approx(R2_TC, abs=1e-14)
    assert b.dtc[0, 0] == pytest.approx(R2_DTC, abs=1e-14)
    assert b.o[0, 0] == pytest.approx(R2_O, abs=1e-14)
    assert b.s[0, 0] == pytest.approx(R2_TC + R2_DTC, abs=1e-14)


def test_three_source_redundant_o_is_half_log_two():
    b = whole(r_system_cov(3, 1.0))
    assert b.o[0, 0] == pytest.approx(0.5 * math.log(2.0), abs=1e-13)


def test_synergistic_system_mirrors_redundant_one():
    for m in (2, 3, 4):
        r = whole(r_system_cov(m, 1.0))
        s = whole(s_system_cov(m, 1.0))
        assert s.o[0, 0] == pytest.approx(-r.o[0, 0], abs=1e-13)
        assert s.o[0, 0] < 0 < r.o[0, 0]


def test_measures_match_submatrix_reference():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 6))
    sigma = a.T @ a / 12 + 0.4 * np.eye(6)
    covs = CovSet([CovarianceMatrix(sigma)])
    idx = np.array(list(itertools.combinations(range(6), 4)))
    got = compute_hoi_batch(covs, NpletBatch(6, indices=idx))
    for b, row in enumerate(idx):
        tc, dtc, o, s = ref.measures(sigma, row)
        assert got.tc[b, 0] == pytest.approx(tc, abs=1e-12)
        assert got.dtc[b, 0] == pytest.approx(dtc, abs=1e-12)
        assert got.o[b, 0] == pytest.approx(o, abs=1e-12)
        assert got.s[b, 0] == pytest.approx(s, abs=1e-12)


def test_bias_corrected_measures_match_reference():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((80, 5))
    sigma = a.T @ a / 80 + 0.4 * np.eye(5)
    covs = CovSet([CovarianceMatrix(sigma, n_samples_used=80)])
    idx = np.array([[0, 2, 3, 4]])
    got = compute_hoi_batch(covs, NpletBatch(5, indices=idx), bias_correct=True)
    tc, dtc, o, s = ref.measures(sigma, idx[0], t_samples=80)
    assert got.tc[0, 0] == pytest.approx(tc, abs=1e-12)
    assert got.dtc[0, 0] == pytest.approx(dtc, abs=1e-12)
    assert got.o[0, 0] == pytest.approx(o, abs=1e-12)
    assert got.s[0, 0] == pytest.approx(s, abs=1e-12)


def test_expanded_o_equals_tc_minus_dtc():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 8))
    sigma = a.T @ a / 20 + 0.5 * np.eye(8)
    covs = CovSet([CovarianceMatrix(sigma)])
    idx = np.array(list(itertools.combinations(range(8), 5)))
    b = compute_hoi_batch(covs, NpletBatch(8, indices=idx))
    np.testing.assert_allclose(b.o, b.tc - b.dtc, atol=1e-12)
    np.testing.assert_array_equal(b.s, b.tc + b.dtc)


def test_order_two_o_information_vanishes():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 5))
    sigma = a.T @ a / 10 + 0.3 * np.eye(5)
    covs = CovSet([CovarianceMatrix(sigma)])
    idx = np.array(list(itertools.combinations(range(5), 2)))
    b = compute_hoi_batch(covs, NpletBatch(5, indices=idx))
    np.testing.assert_allclose(b.o, 0.0, atol=1e-12)
    # at order 2 both tc and dtc equal the mutual information
    np.testing.assert_allclose(b.tc, b.dtc, atol=1e-12)


def test_identity_covariance_measures_are_exact_zeros():
    covs = CovSet([CovarianceMatrix(np.eye(6))])
    for k in (2, 3, 4, 6):
        idx = np.array(list(itertools.combinations(range(6), k)))
        b = compute_hoi_batch(covs, NpletBatch(6, indices=idx))
        for m in (b.tc, b.dtc, b.o, b.s):
            assert (m == 0.0).all()


def test_measures_from_hand_built_terms():
    # J = 4, singles 1.5, 1.6, 1.7 (S = 4.8), leave-one-out 3.0, 3.1, 3.2 (L = 9.3)
    hoi = hoi_from_sums(np.array([[4.0]]), np.array([[4.8]]), np.array([[9.3]]), np.array([3]))
    assert hoi.tc[0, 0] == pytest.approx(1.5 + 1.6 + 1.7 - 4.0)
    assert hoi.dtc[0, 0] == pytest.approx(-2.0 * 4.0 + 9.3)
    assert hoi.o[0, 0] == pytest.approx(4.0 + (1.5 - 3.0) + (1.6 - 3.1) + (1.7 - 3.2))
    assert hoi.s[0, 0] == pytest.approx(hoi.tc[0, 0] + hoi.dtc[0, 0])


def test_pairwise_mi_closed_form():
    rho = 0.5
    cov = CovarianceMatrix(np.array([[1.0, rho], [rho, 1.0]]))
    # MI of a bivariate normal: -log(1 - rho^2) / 2
    assert pairwise_mi(cov, 0, 1) == pytest.approx(-0.5 * math.log(1 - rho * rho), abs=1e-14)
    assert pairwise_mi(cov, 1, 0) == pairwise_mi(cov, 0, 1)


def test_pairwise_mi_validation():
    cov = CovarianceMatrix(np.eye(3))
    with pytest.raises(InvalidNplet):
        pairwise_mi(cov, 1, 1)
    with pytest.raises(InvalidNplet):
        pairwise_mi(cov, 0, 3)
    with pytest.raises(InvalidNplet):  # not truncated to the MI of (0, 1)
        pairwise_mi(cov, 0.6, 1.9)


def test_mixed_batch_measures_equal_fixed_order():
    sigma = r_system_cov(3, 1.0)
    covs = CovSet([sigma])
    idx = np.array(list(itertools.combinations(range(4), 3)))
    fixed = compute_hoi_batch(covs, NpletBatch(4, indices=idx))
    masks = np.zeros((len(idx), 4), dtype=bool)
    np.put_along_axis(masks, idx, True, axis=1)
    mixed = compute_hoi_batch(covs, NpletBatch(4, masks=masks))
    for m in ("tc", "dtc", "o", "s"):
        np.testing.assert_allclose(getattr(mixed, m), getattr(fixed, m), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_mixed_batch_rows_equal_fixed_batches_and_reference(seed, bias_correct):
    n, t = 6, 40
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(2):
        a = rng.standard_normal((2 * n, n))
        sigmas.append(a.T @ a / (2 * n) + 0.3 * np.eye(n))
    covs = CovSet([CovarianceMatrix(sig, n_samples_used=t) for sig in sigmas])
    # random orders 1..N, always including an order-1 and an order-N row
    orders = np.concatenate([[1, n], rng.integers(1, n + 1, size=10)])
    masks = np.zeros((len(orders), n), dtype=bool)
    for r, k in enumerate(orders):
        masks[r, rng.choice(n, size=k, replace=False)] = True
    masks = masks[rng.permutation(len(orders))]
    mixed = compute_hoi_batch(covs, NpletBatch(n, masks=masks, check_unique=False),
                              bias_correct=bias_correct)
    for r, mask in enumerate(masks):
        idx = np.flatnonzero(mask)
        fixed = compute_hoi_batch(covs, NpletBatch(n, indices=idx[None, :]),
                                  bias_correct=bias_correct)
        for d, sig in enumerate(sigmas):
            want = ref.measures(sig, idx, t_samples=t if bias_correct else None)
            for m, w in zip(("tc", "dtc", "o", "s"), want):
                got = getattr(mixed, m)[r, d]
                assert abs(got - getattr(fixed, m)[0, d]) <= 1e-10
                assert abs(got - w) <= 1e-10


@pytest.mark.parametrize("bias_correct", [False, True])
@pytest.mark.parametrize("n", [9, 12, 20])
def test_mask_rows_equal_their_sorted_index_rows_bitwise(n, bias_correct):
    # the direct path sums each row over its own members, so a mask row's
    # measures are its sorted index row's bit for bit, at any N
    rng = np.random.default_rng(n)
    covs = []
    for _ in range(2):
        a = rng.standard_normal((2 * n, n))
        covs.append(CovarianceMatrix(a.T @ a / (2 * n) + 0.3 * np.eye(n), n_samples_used=3 * n))
    covs = CovSet(covs)
    orders = np.concatenate([[3, n], rng.integers(3, n + 1, size=150)])
    masks = np.zeros((len(orders), n), dtype=bool)
    for r, k in enumerate(orders):
        masks[r, rng.choice(n, size=k, replace=False)] = True
    mixed = compute_hoi_batch(covs, NpletBatch(n, masks=masks, check_unique=False),
                              bias_correct=bias_correct)
    for k in np.unique(orders):
        rows = np.flatnonzero(orders == k)
        idx = [np.flatnonzero(masks[r]) for r in rows]
        fixed = compute_hoi_batch(covs, NpletBatch(n, indices=idx, check_unique=False),
                                  bias_correct=bias_correct)
        for m in ("tc", "dtc", "o", "s"):
            np.testing.assert_array_equal(getattr(mixed, m)[rows], getattr(fixed, m))
