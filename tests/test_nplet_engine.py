import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from hoi import (
    NORMAL_ENTROPY,
    CovarianceMatrix,
    CovSet,
    ExhaustiveLimitExceeded,
    InvalidData,
    InvalidNplet,
    InvalidOrderRange,
    NotPositiveDefinite,
    NpletBatch,
    count_nplets,
    enumerate_order,
    entropy_terms,
    extract_subcov_batch,
    pad_subcov_batch,
)
from hoi import nplet_engine
from hoi.nplet_engine import (
    LogdetLattice,
    _BorderedSets,
    _bias_offsets,
    _binomial_table,
    _border,
    _colex_unrank,
    _direct_logdets,
    _excess_singles,
    _excess_sums,
    _prefix_descent,
    _unborder,
)


def jittered_logdets(mats):
    """The direct path's joint and leave-one-out log-determinants of a
    (B, D, K, K) stack: matrix (b, d) is diagonal block b of dataset d's
    covariance, and row b of the batch selects that block."""
    b, d, k, _ = mats.shape
    sigma = np.zeros((d, b * k, b * k))
    for i in range(b):
        sigma[:, i * k:(i + 1) * k, i * k:(i + 1) * k] = mats[i]
    covs = CovSet([CovarianceMatrix(s) for s in sigma])
    return _direct_logdets(covs, NpletBatch(b * k, indices=np.arange(b * k).reshape(b, k)))


def random_covset(seed, n, d=1, samples=None):
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(d):
        a = rng.standard_normal((2 * n, n))
        covs.append(CovarianceMatrix(a.T @ a / (2 * n) + 0.5 * np.eye(n),
                                     n_samples_used=samples or 0))
    return CovSet(covs)


def test_count_matches_pascal_recurrence():
    for n, lo, hi in [(3, 1, 3), (8, 3, 8), (12, 2, 7), (20, 1, 20), (30, 3, 30)]:
        assert count_nplets(n, lo, hi) == ref.count_subsets(n, lo, hi)


def test_count_frozen_large_value():
    assert count_nplets(30, 3, 30) == 1073741358


def test_count_validates_range():
    for bad in [(5, 0, 3), (5, 3, 2), (5, 2, 6), (0, 1, 1)]:
        with pytest.raises(InvalidOrderRange):
            count_nplets(*bad)


@pytest.mark.parametrize("batch_size", [1, 7, 64, 10000])
def test_enumeration_is_complete_ordered_and_duplicate_free(batch_size):
    got = []
    for batch in enumerate_order(7, 3, batch_size=batch_size):
        assert batch.batch_size <= batch_size
        got.extend(batch.row_indices(i) for i in range(batch.batch_size))
    assert got == list(ref.all_subsets(7, 3, 3))


SMALL_ORDERS = [(n, k) for n in range(1, 10) for k in range(1, n + 1)]


@pytest.mark.parametrize("batch_size, sizes", [
    pytest.param(1, SMALL_ORDERS, id="1"),
    pytest.param(3, SMALL_ORDERS, id="3"),
    pytest.param(10000, SMALL_ORDERS, id="10000"),
    pytest.param(4096, [(22, 11)], id="4096"),  # 705,432 rows
])
def test_enumeration_matches_itertools_rows_and_batch_boundaries(batch_size, sizes):
    for n, k in sizes:
        combos = itertools.combinations(range(n), k)
        for batch in enumerate_order(n, k, batch_size):
            want = list(itertools.islice(combos, batch_size))
            assert [tuple(row) for row in batch.indices.tolist()] == want, (n, k)
        assert next(combos, None) is None, (n, k)


def test_colex_unrank_inverts_the_rank():
    def colex(rows, binom):  # sum_p C(c_p, p + 1), row by row
        return binom[rows, np.arange(1, rows.shape[1] + 1)].sum(axis=1)

    for n in range(1, 13):
        for k in range(1, n + 1):
            binom = _binomial_table(n, k)
            ranks = np.arange(count_nplets(n, k, k))
            rows = _colex_unrank(ranks, k, binom)
            assert (rows >= 0).all() and (rows < n).all(), (n, k)
            assert (np.diff(rows, axis=1) > 0).all(), (n, k)
            np.testing.assert_array_equal(colex(rows, binom), ranks)
    rng = np.random.default_rng(0)
    for k in range(3, 7):
        binom = _binomial_table(200, k)
        ranks = rng.integers(0, count_nplets(200, k, k), size=5000)
        np.testing.assert_array_equal(colex(_colex_unrank(ranks, k, binom), binom), ranks)


def test_gather_reads_the_tables_at_brute_force_colex_ranks():
    def colex(row):
        return sum(math.comb(c, p + 1) for p, c in enumerate(row))

    rng = np.random.default_rng(7)
    for n, k in ((1, 1), (6, 1), (6, 6), (9, 4), (20, 10), (20, 20), (200, 3)):
        lattice = LogdetLattice(CovSet([CovarianceMatrix(np.eye(n))]), k, k, False)
        # distinct entries: entry r of a table holds r + 1/2, so every sum is exact
        lattice.binom = _binomial_table(n, k)
        lattice.tables = {m: np.arange(math.comb(n, m))[:, None] + 0.5 for m in (k - 1, k)}
        lattice.singles = np.arange(n)[:, None] + 0.25
        rows = np.array([np.sort(rng.choice(n, k, replace=False)) for _ in range(300)])
        joint, singles, loo = lattice._gather(rows)
        rows = rows.tolist()
        assert joint[:, 0].tolist() == [colex(row) + 0.5 for row in rows], (n, k)
        assert singles[:, 0].tolist() == [sum(row) + 0.25 * k for row in rows], (n, k)
        want = [sum(colex(row[:j] + row[j + 1:]) + 0.5 for j in range(k)) for row in rows]
        assert loo[:, 0].tolist() == want, (n, k)


def test_enumeration_is_lazy_below_the_rank_limit_and_refused_above():
    # C(60, 30) ~ 1.2e17 rows: the first batch comes without walking the rest
    first = next(enumerate_order(60, 30, 16))
    want = list(itertools.islice(itertools.combinations(range(60), 30), 16))
    assert [tuple(row) for row in first.indices.tolist()] == want
    # C(70, 35) ~ 1.1e20 > 2**62: int64 ranks cannot number it
    with pytest.raises(ExhaustiveLimitExceeded):
        next(enumerate_order(70, 35))


def test_enumeration_stream_count_only():
    # never materialize; just count rows across batches
    total = sum(b.batch_size for b in enumerate_order(18, 9, batch_size=4096))
    assert total == count_nplets(18, 9, 9)


def test_enumerate_order_validation():
    with pytest.raises(InvalidOrderRange):
        list(enumerate_order(4, 5))
    with pytest.raises(InvalidData):
        list(enumerate_order(4, 2, batch_size=0))


def test_nplet_batch_validation():
    with pytest.raises(InvalidNplet):
        NpletBatch(4)
    with pytest.raises(InvalidNplet):
        NpletBatch(4, indices=np.array([[0, 1]]), masks=np.ones((1, 4), dtype=bool))
    with pytest.raises(InvalidNplet):
        NpletBatch(4, indices=np.array([[0, 4]]))
    with pytest.raises(InvalidNplet):
        NpletBatch(4, indices=np.array([[2, 1]]))
    with pytest.raises(InvalidNplet):
        NpletBatch(4, indices=np.array([[1, 1]]))
    with pytest.raises(InvalidNplet):
        NpletBatch(4, indices=np.array([[0, 1], [0, 1]]))
    with pytest.raises(InvalidNplet):
        NpletBatch(4, masks=np.zeros((1, 4), dtype=bool))
    with pytest.raises(InvalidNplet):
        NpletBatch(4, masks=np.ones((1, 4), dtype=np.int64))
    # indices that are not integers are refused, not truncated
    for indices in ([[0.7, 1.2, 2.9]], [["0", "1"]], [[True, False]]):
        with pytest.raises(InvalidNplet):
            NpletBatch(5, indices=indices)
    with pytest.raises(InvalidData):
        NpletBatch(5.5, indices=[[0, 1]])
    assert NpletBatch(np.int64(5), indices=np.array([[0, 4]], dtype=np.uint8)).n_variables == 5
    # duplicates allowed when explicitly trusted
    b = NpletBatch(4, indices=np.array([[0, 1], [0, 1]]), check_unique=False)
    assert b.batch_size == 2


def test_nplet_batch_views_round_trip():
    idx = np.array([[0, 2, 3], [1, 2, 4]])
    b = NpletBatch(5, indices=idx)
    assert b.order == 3
    np.testing.assert_array_equal(b.orders(), [3, 3])
    assert b.row_indices(1) == (1, 2, 4)
    masks = np.zeros((2, 5), dtype=bool)
    np.put_along_axis(masks, idx, True, axis=1)
    m = NpletBatch(5, masks=masks)
    np.testing.assert_array_equal(m.orders(), [3, 3])
    assert m.row_indices(0) == (0, 2, 3)
    with pytest.raises(InvalidNplet):
        m.order  # mixed batches have no single order


def test_extract_subcov_matches_explicit_gather():
    covs = random_covset(0, 6, d=2)
    idx = np.array([[0, 1, 4], [2, 3, 5], [1, 2, 3]])
    sub = extract_subcov_batch(covs, NpletBatch(6, indices=idx))
    assert sub.matrices.shape == (3, 2, 3, 3)
    for b, row in enumerate(idx):
        for d in range(2):
            np.testing.assert_array_equal(
                sub.matrices[b, d], covs.covs[d].sigma[np.ix_(row, row)]
            )


def test_pad_subcov_embeds_identity():
    covs = random_covset(1, 5)
    masks = np.array([[True, False, True, False, True]])
    sub = pad_subcov_batch(covs, NpletBatch(5, masks=masks))
    m = sub.matrices[0, 0]
    keep = [0, 2, 4]
    np.testing.assert_array_equal(m[np.ix_(keep, keep)], covs.covs[0].sigma[np.ix_(keep, keep)])
    for j in (1, 3):
        assert m[j, j] == 1.0
        assert np.all(m[j, [i for i in range(5) if i != j]] == 0.0)
    # identity padding leaves the log-determinant of the kept block intact
    sign, want = np.linalg.slogdet(covs.covs[0].sigma[np.ix_(keep, keep)])
    got, _ = jittered_logdets(sub.matrices)
    assert got[0, 0] == pytest.approx(want, rel=1e-12)


def test_batched_logdet_invdiag_matches_slogdet_submatrices():
    rng = np.random.default_rng(2)
    mats = np.empty((4, 3, 5, 5))
    for b in range(4):
        for d in range(3):
            a = rng.standard_normal((8, 5))
            mats[b, d] = a.T @ a / 8 + 0.3 * np.eye(5)
    logdet, loo = jittered_logdets(mats)
    for b in range(4):
        for d in range(3):
            _, want = np.linalg.slogdet(mats[b, d])
            assert logdet[b, d] == pytest.approx(want, rel=1e-10)
            for j in range(5):
                keep = [i for i in range(5) if i != j]
                _, minor = np.linalg.slogdet(mats[b, d][np.ix_(keep, keep)])
                # logdet(minor) = logdet(full) + log((inverse)_jj)
                assert loo[b, d, j] == pytest.approx(minor, rel=1e-9)


def test_fallback_keeps_healthy_matrices_bit_identical():
    covs = random_covset(3, 4)
    good = extract_subcov_batch(covs, NpletBatch(4, indices=np.array([[0, 1, 2]]))).matrices
    # singular (duplicated variable) matrix forces the per-matrix fallback
    singular = np.ones((1, 1, 3, 3)) + np.eye(3) * 1e-14
    stack = np.concatenate([good, singular])
    logdet, loo = jittered_logdets(stack)
    pure_ld, pure_loo = jittered_logdets(good)
    assert logdet[0, 0] == pure_ld[0, 0]
    np.testing.assert_array_equal(loo[0, 0], pure_loo[0, 0])
    assert np.isfinite(logdet[1, 0])  # jitter rescued the singular one


def test_indefinite_matrix_raises_with_coordinates():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    stack = np.stack([np.eye(2), bad])[:, None]
    with pytest.raises(NotPositiveDefinite) as err:
        jittered_logdets(stack)
    assert err.value.coords == [(1, 0)]


def test_collinear_matrices_never_give_non_finite_terms():
    # x2 = w0 x0 + w1 x1 exactly: the Cholesky either fails and takes the
    # jitter retry or passes on rounding noise with a tiny last pivot. Either
    # way every leave-one-out term is finite and, since it comes from the
    # factor's triangular inverse, as accurate as its nonsingular 2 x 2 minor
    base = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for w0 in np.linspace(0.3, 2.0, 18):
        for w1 in np.linspace(0.3, 2.0, 18):
            t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [w0, w1, 0.0]])
            sigma = t @ base @ t.T
            sigma = 0.5 * (sigma + sigma.T)
            covs = CovSet([CovarianceMatrix(sigma)])
            batch = NpletBatch(3, indices=[[0, 1, 2]])
            joint, loo = _direct_logdets(covs, batch)
            assert np.isfinite(joint).all()
            assert np.isfinite(loo).all()
            minors = [np.linalg.slogdet(sigma[np.ix_(rest, rest)])[1]
                      for rest in ([1, 2], [0, 2], [0, 1])]
            np.testing.assert_allclose(loo[0, 0], minors, rtol=0, atol=1e-6)
            sums = entropy_terms(covs, batch)  # J, S and L
            assert all(np.isfinite(x).all() for x in sums)
            np.testing.assert_allclose(2.0 * sums[2][0, 0], sum(minors), rtol=0, atol=1e-6)


def test_entropy_terms_match_slogdet_reference():
    covs = random_covset(4, 6, d=2)
    idx = np.array(list(itertools.combinations(range(6), 3)))
    batch = NpletBatch(6, indices=idx)
    joint, loo = _direct_logdets(covs, batch)
    singles = _excess_singles(covs, _bias_offsets(covs, 3, False))  # (D, N)
    j_sum, s_sum, l_sum = entropy_terms(covs, batch)
    for b, row in enumerate(idx):
        for d in range(2):
            sig = covs.covs[d].sigma
            sub = sig[np.ix_(row, row)]
            # excess entropies drop k, 1 and k - 1 unit-normal baselines
            want_joint = ref.entropy(sub)
            assert 0.5 * joint[b, d] + 3 * NORMAL_ENTROPY == pytest.approx(want_joint, rel=1e-12)
            assert j_sum[b, d] + 3 * NORMAL_ENTROPY == pytest.approx(want_joint, rel=1e-12)
            want_singles, want_loo = [], []
            for pos, j in enumerate(row):
                want_singles.append(ref.entropy(sig[j : j + 1, j : j + 1]))
                assert singles[d, j] + NORMAL_ENTROPY == pytest.approx(want_singles[-1],
                                                                      rel=1e-12)
                keep = [i for i in range(3) if i != pos]
                want_loo.append(ref.entropy(sub[np.ix_(keep, keep)]))
                assert 0.5 * loo[b, d, pos] + 2 * NORMAL_ENTROPY == pytest.approx(
                    want_loo[-1], rel=1e-12
                )
            assert s_sum[b, d] + 3 * NORMAL_ENTROPY == pytest.approx(sum(want_singles),
                                                                     rel=1e-12)
            assert l_sum[b, d] + 3 * 2 * NORMAL_ENTROPY == pytest.approx(sum(want_loo),
                                                                         rel=1e-12)


def test_entropy_terms_mixed_equals_fixed():
    covs = random_covset(5, 7, d=2)
    idx = np.array(list(itertools.combinations(range(7), 4)))
    fixed = entropy_terms(covs, NpletBatch(7, indices=idx))
    masks = np.zeros((len(idx), 7), dtype=bool)
    np.put_along_axis(masks, idx, True, axis=1)
    mixed = entropy_terms(covs, NpletBatch(7, masks=masks))
    for got, want in zip(mixed, fixed):  # J, S and L
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_entropy_terms_bias_needs_sample_counts():
    covs = random_covset(6, 4)  # analytic, n_samples_used=0
    batch = NpletBatch(4, indices=np.array([[0, 1]]))
    with pytest.raises(InvalidData):
        entropy_terms(covs, batch, bias_correct=True)


def test_entropy_terms_bias_correction_uses_effective_dimension():
    covs = random_covset(7, 4, samples=60)
    batch = NpletBatch(4, indices=np.array([[0, 1, 2]]))
    np.testing.assert_allclose(
        _excess_singles(covs, _bias_offsets(covs, 3, True)),
        _excess_singles(covs, _bias_offsets(covs, 3, False)) - ref.entropy_bias(1, 60),
        atol=1e-12,
    )
    raw = entropy_terms(covs, batch)
    corr = entropy_terms(covs, batch, bias_correct=True)
    # J, S and L: one joint term of order 3, three singles and three of order 2
    for got, want, k, count in zip(corr, raw, (3, 1, 2), (1, 3, 3)):
        assert got[0, 0] == pytest.approx(want[0, 0] - count * ref.entropy_bias(k, 60),
                                          abs=1e-12)


def test_order_one_rows_have_zero_leave_one_out():
    covs = random_covset(8, 3)
    _, loo = _direct_logdets(covs, NpletBatch(3, indices=np.arange(3)[:, None]))
    np.testing.assert_allclose(loo, 0.0, atol=1e-12)
    _, _, l_sum = entropy_terms(covs, NpletBatch(3, masks=np.eye(3, dtype=bool)))
    np.testing.assert_allclose(l_sum, 0.0, atol=1e-12)


def test_mixed_batch_failure_reports_caller_row():
    # dataset 1 couples variables 3 and 4 beyond correlation 1, so every
    # n-plet holding both is indefinite there and survives no jitter
    good = random_covset(9, 5).covs[0]
    bad = np.eye(5)
    bad[3, 4] = bad[4, 3] = 2.0
    covs = CovSet([good, CovarianceMatrix(bad)])
    masks = np.zeros((5, 5), dtype=bool)
    for r, row in enumerate([(0, 1, 2), (0, 1), (1, 3, 4), (2, 4), (0, 1, 2, 3)]):
        masks[r, list(row)] = True
    with pytest.raises(NotPositiveDefinite) as err:
        entropy_terms(covs, NpletBatch(5, masks=masks))
    # row 2 is the second row of the order-3 group; coordinates name the
    # caller's row, not the position inside the group
    assert err.value.coords == [(2, 1)]


def test_bordering_adds_and_removes_one_variable_exactly():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((20, 7))
    sigma = np.zeros((8, 8))
    sigma[:7, :7] = a.T @ a / 20 + 0.3 * np.eye(7)
    members = [0, 2, 3, 5]
    sub = sigma[np.ix_(members, members)]
    # variable 7 is the members' sum, with its variance a hair low
    sigma[7, members] = sigma[members, 7] = sub.sum(axis=1)
    sigma[7, 7] = sub.sum() - 1e-12
    logdet, inv, _ = _prefix_descent(sigma[None], np.array([members]))  # (B, D) = (1, 1)
    np.testing.assert_allclose(logdet[0, 0], np.linalg.slogdet(sub)[1], rtol=0, atol=1e-13)
    np.testing.assert_allclose(inv[0, 0], np.linalg.inv(sub), rtol=1e-12, atol=1e-13)
    for v in (1, 4, 6):
        grown = np.ix_(members + [v], members + [v])
        joint, diag, _, s = _border(sigma[None], np.array([members]), np.array([v]), inv, logdet)
        want_inv = np.linalg.inv(sigma[grown])
        np.testing.assert_allclose(joint[0, 0], np.linalg.slogdet(sigma[grown])[1], rtol=0, atol=1e-13)
        np.testing.assert_allclose(diag[0, 0], np.diagonal(want_inv)[:-1], rtol=1e-12)
        np.testing.assert_allclose(1.0 / s[0, 0], want_inv[-1, -1], rtol=1e-12)
    # a negative Schur complement is NaN, so the row goes to the direct path
    joint, _, _, s = _border(sigma[None], np.array([members]), np.array([7]), inv, logdet)
    assert np.isnan(joint).all() and np.isnan(s).all()
    for j in range(len(members)):
        rest = members[:j] + members[j + 1:]
        ld, down = _unborder(inv, logdet, np.array([j]))
        np.testing.assert_allclose(ld[0, 0], np.linalg.slogdet(sigma[np.ix_(rest, rest)])[1],
                                   rtol=0, atol=1e-13)
        keep = [i for i in range(len(members)) if i != j]
        np.testing.assert_allclose(down[0, 0][np.ix_(keep, keep)],
                                   np.linalg.inv(sigma[np.ix_(rest, rest)]), rtol=1e-12, atol=1e-13)
        assert (down[0, 0][j] == 0.0).all() and (down[0, 0][:, j] == 0.0).all()


def test_prefix_descent_matches_slogdet_and_inv():
    covs = random_covset(21, 8, d=2)
    sigma = covs.stacked()
    # every descent starts at the empty set: log-determinant 0, a 0 x 0 inverse
    logdet, inv, node = _prefix_descent(sigma, np.zeros((3, 0), dtype=np.int64))
    assert logdet.tolist() == [[0.0, 0.0]] and inv.shape == (1, 2, 0, 0)
    np.testing.assert_array_equal(node, np.zeros(3))
    # its first level is each variable's variance, exactly
    var = np.diagonal(sigma, axis1=1, axis2=2).T  # (N, D)
    logdet, inv, _ = _prefix_descent(sigma, np.arange(8)[:, None])
    np.testing.assert_array_equal(logdet, np.log(var))
    np.testing.assert_array_equal(inv[:, :, 0, 0], 1.0 / var)
    for m in range(1, 9):
        # lexicographic rows, which share their prefixes with their neighbours
        idx = np.array(list(itertools.combinations(range(8), m)))
        logdet, inv, node = _prefix_descent(sigma, idx)
        assert inv.shape == (len(idx), 2, m, m)
        np.testing.assert_array_equal(node, np.arange(len(idx)))
        subs = sigma[:, idx[:, :, None], idx[:, None, :]].transpose(1, 0, 2, 3)
        np.testing.assert_allclose(logdet, np.linalg.slogdet(subs)[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(inv, np.linalg.inv(subs), rtol=0, atol=1e-12)
        # a node depends on its prefix alone, not on the rows around it
        window = slice(len(idx) // 3, len(idx) // 3 + 2)
        part = _prefix_descent(sigma, idx[window])
        np.testing.assert_array_equal(part[0], logdet[window])
        np.testing.assert_array_equal(part[1], inv[window])



@pytest.mark.parametrize("n,d", [(7, 3), (12, 1)])
def test_lattice_opens_every_order_alike_from_any_lowest_order(n, d):
    # open(k) climbs from the empty set when it holds no table k - 1, so a
    # lattice whose lowest order is lo gives the bits of one from order 1
    covs = random_covset(31 + n, n, d=d, samples=200)
    for bias_correct in (False, True):
        climbed = {}
        first = LogdetLattice(covs, 1, n, bias_correct)
        assert first.pivots == set(range(1, n + 1))
        for k in range(1, n + 1):
            first.open(k)
            climbed[k] = (first.tables[k - 1], first.tables[k], first.rows)
        for lo in range(2, n + 1):
            lattice = LogdetLattice(covs, lo, n, bias_correct)
            for k in range(lo, n + 1):
                lattice.open(k)
                assert sorted(lattice.tables) == [k - 1, k]
                for got, want in zip((lattice.tables[k - 1], lattice.tables[k], lattice.rows),
                                     climbed[k]):
                    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_route_sums_the_singles_in_one_order(d, monkeypatch):
    # the pivot route (_gather), the walk and the direct path add S member by
    # member in slot order, so S agrees bit for bit at every order; J and L
    # come from different log-determinants and agree to rounding
    n = 12
    covs = random_covset(40 + d, n, d=d, samples=200)
    pivot = LogdetLattice(covs, 1, n, True)
    assert pivot.pivots == set(range(1, n + 1))
    monkeypatch.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
    walk = LogdetLattice(covs, 1, n, True)
    assert not walk.pivots
    for k in range(1, n + 1):
        pivot.open(k)
        batch = NpletBatch(n, indices=pivot.rows.T.astype(np.int64))
        routes = [pivot.sums(batch), walk.sums(batch), (entropy_terms(covs, batch, True), 0)]
        (joint, singles, loo), _ = routes[0]
        for (j, s, l), direct in routes[1:]:
            assert direct == 0, k
            np.testing.assert_array_equal(s, singles, err_msg=f"order {k}")
            np.testing.assert_allclose(j, joint, rtol=0, atol=1e-12, err_msg=f"order {k}")
            np.testing.assert_allclose(l, loo, rtol=0, atol=1e-12, err_msg=f"order {k}")


def test_excess_sums_add_slot_by_slot_whatever_the_width():
    covs = random_covset(50, 20, d=2, samples=300)
    bias = _bias_offsets(covs, 20, True)
    singles = _excess_singles(covs, bias)
    rng = np.random.default_rng(51)
    for k in range(1, 21):
        idx = np.sort(rng.random((64, 20)).argsort(axis=1)[:, :k], axis=1)
        joint, loo = rng.normal(size=(64, 2)), rng.normal(size=(64, 2, k))
        got = _excess_sums(joint, loo, idx, singles, bias)
        terms = (singles[:, idx].transpose(1, 0, 2), 0.5 * loo - bias[:, k - 1][None, :, None])
        for total, parts in zip(got[1:], terms):  # S and L, added left to right
            want = parts[..., 0].copy()
            for j in range(1, k):
                want = want + parts[..., j]
            np.testing.assert_array_equal(total, want, err_msg=f"k={k}")
        if k > 13:
            continue
        # the same members among dead slots of a 16-slot row, in the same order
        live = np.zeros((64, 16), dtype=bool)
        for row in live:
            row[np.sort(rng.choice(16, k, replace=False))] = True
        wide_idx = np.zeros((64, 16), dtype=np.int64)
        wide_loo = np.full((64, 2, 16), np.nan)
        wide_idx[live] = idx.ravel()
        wide_loo.transpose(0, 2, 1)[live] = loo.transpose(0, 2, 1).reshape(-1, 2)
        compact = _excess_sums(joint, loo, idx, singles, bias, live=np.ones(idx.shape, bool))
        wide = _excess_sums(joint, wide_loo, wide_idx, singles, bias, live=live)
        for a, b, c in zip(wide, compact, got):
            np.testing.assert_array_equal(a, b, err_msg=f"k={k}")
            np.testing.assert_array_equal(b, c, err_msg=f"k={k}")


def test_bordered_sets_score_moves_from_any_stored_row():
    covs = random_covset(12, 9, d=2)
    n = covs.n_variables
    stored = np.zeros((4, n), dtype=bool)
    for r, row in enumerate([(0, 3, 5), (1, 2, 4, 6, 7, 8), (2, 8), (0, 1, 5, 6)]):
        stored[r, list(row)] = True
    # one slot wider than the largest set, row 1, so that it can take an add
    sets = _BorderedSets(LogdetLattice(covs, 1, n, False),
                         np.broadcast_to(np.arange(n), stored.shape), stored, width=7)
    # one proposal per row each round: drops, adds, swaps and no move, from every row
    rounds = (([3, 4, 8, 1], [-1, -1, 0, -1]), ([-1, -1, -1, -1], [7, 0, -1, 2]),
              ([5, -1, -1, 6], [1, 3, -1, 8]), ([-1, -1, -1, -1], [-1, -1, -1, -1]))
    for drop, add in rounds:
        p = sets.propose(np.array(drop), np.array(add))
        assert not p.direct.any()
        for i in range(len(stored)):
            row = set(np.flatnonzero(stored[i])) - {drop[i]} | ({add[i]} - {-1})
            idx = np.array([sorted(row)])
            joint, loo = _direct_logdets(covs, NpletBatch(n, indices=idx))
            slots = [int(np.flatnonzero(p.live[i] & (p.members[i] == v))[0]) for v in idx[0]]
            np.testing.assert_allclose(p.logdet[i], joint[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(p.loo[i][:, slots], loo[0], rtol=0, atol=1e-12)


def test_bordered_sets_accept_then_give_back_the_accepted_logdets():
    covs = random_covset(13, 9, d=2)
    n = covs.n_variables
    stored = np.zeros((3, n), dtype=bool)
    for r, row in enumerate([(0, 3, 5), (1, 2, 4, 6), (2, 7, 8)]):
        stored[r, list(row)] = True
    sets = _BorderedSets(LogdetLattice(covs, 1, n, False),
                         np.broadcast_to(np.arange(n), stored.shape), stored, width=6)
    # each round, every row drops, adds or swaps one variable
    for drop, add in (([3, -1, 7], [-1, 0, 1]), ([-1, 6, -1], [4, 5, 3])):
        p = sets.propose(np.array(drop), np.array(add))
        sets.accept(p, np.ones(3, dtype=bool))
        again = sets.propose(np.full(3, -1), np.full(3, -1))
        np.testing.assert_array_equal(again.logdet, p.logdet)
        np.testing.assert_allclose(np.where(p.live[:, None, :], again.loo, 0.0),
                                   np.where(p.live[:, None, :], p.loo, 0.0), rtol=0, atol=1e-12)


def test_one_direct_path_behind_one_fallback_site():
    # inside the engine, only entropy_terms factors (_direct_logdets), and
    # only the lattice's fallback check (_checked) calls entropy_terms
    tree = ast.parse(Path(nplet_engine.__file__).read_text())
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)]
    users = {name: sorted(owner for owner, node in defs for n in ast.walk(node)
                          if isinstance(n, ast.Name) and n.id == name)
             for name in ("_direct_logdets", "entropy_terms")}
    assert users == {"_direct_logdets": ["entropy_terms"],
                     "entropy_terms": ["LogdetLattice._checked"]}
