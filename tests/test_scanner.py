import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from hoi import (
    AnnealSchedule,
    Callback,
    CovarianceMatrix,
    CovSet,
    ExhaustiveLimitExceeded,
    FEATURE_NAMES,
    FeatureAccumulator,
    FeatureVector,
    Histogram,
    InvalidData,
    InvalidOrderRange,
    NotPositiveDefinite,
    NpletBatch,
    ObjectiveSpec,
    TopK,
    anneal,
    block_concat,
    compute_hoi_batch,
    copula_entropy,
    copula_transform,
    count_nplets,
    entropy_terms,
    enumerate_order,
    estimate_covariance,
    extract_features,
    extract_subcov_batch,
    gaussian_entropy_nats,
    greedy,
    r_system_cov,
    s_system_cov,
    sample_gaussian,
    scan,
)
from hoi import nplet_engine, scanner
from hoi.measures import hoi_from_sums
from hoi.copula_core import _factor_logdet
from hoi.optimizers import _extensions
from hoi.scanner import MEASURES, best_rows


def toy_covset(seed=0, n=6, d=1):
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(d):
        a = rng.standard_normal((3 * n, n))
        covs.append(CovarianceMatrix(a.T @ a / (3 * n)))
    return CovSet(covs)


def brute_entries(sigma, lo, hi, measure_pos, direction, k):
    rows = []
    for idx in ref.all_subsets(sigma.shape[0], lo, hi):
        val = ref.measures(sigma, idx)[measure_pos]
        rows.append((idx, val))
    sign = -1.0 if direction == "max" else 1.0
    rows.sort(key=lambda r: (sign * r[1], r[0]))
    return rows[:k]


@pytest.mark.parametrize("direction", ["max", "min"])
def test_topk_matches_brute_force(direction):
    covs = toy_covset(1, n=6)
    got = scan(covs, 3, 5, TopK("o", direction, 7))
    want = brute_entries(covs.covs[0].sigma, 3, 5, 2, direction, 7)
    assert len(got) == 1
    assert [e.indices for e in got[0]] == [idx for idx, _ in want]
    for entry, (_, val) in zip(got[0], want):
        assert entry.value == pytest.approx(val, abs=1e-12)
        assert entry.o == entry.value
        assert entry.order == len(entry.indices)


def test_topk_is_invariant_to_batch_size_and_workers():
    covs = toy_covset(2, n=7, d=2)
    base = scan(covs, 3, 6, TopK("s", "max", 9))
    for batch_size, workers in [(1, 1), (13, 1), (10000, 4), (64, 3)]:
        other = scan(covs, 3, 6, TopK("s", "max", 9),
                     batch_size=batch_size, workers=workers)
        assert other == base  # TopEntry is frozen, equality is exact


def test_topk_tie_break_is_lexicographic():
    # identity: every n-plet ties at 0, so selection is purely lexicographic
    covs = CovSet([CovarianceMatrix(np.eye(5))])
    got = scan(covs, 3, 3, TopK("o", "max", 4), batch_size=2)
    assert [e.indices for e in got[0]] == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)]
    assert all(e.value == 0.0 for e in got[0])


def test_topk_builds_at_most_k_entries_per_batch(monkeypatch):
    # identity covariance: every o is 0, so every row ties at the cut
    built = []
    entry_type = scanner.TopEntry

    def counted(*args, **kwargs):
        built.append(1)
        return entry_type(*args, **kwargs)

    monkeypatch.setattr(scanner, "TopEntry", counted)
    batches = []
    covs = CovSet([CovarianceMatrix(np.eye(16))])
    got = scan(covs, 3, 16, TopK("o", "max", 10), batch_size=4096,
               progress=lambda info: batches.append(info["batches"]))
    assert len(built) <= 10 * batches[-1]
    assert [e.indices for e in got[0]][:2] == [(0, 1, 2), (0, 1, 2, 3)]
    assert [e.value for e in got[0]] == [0.0] * 10


def test_best_rows_ties_go_to_the_smaller_position():
    v = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 2.0, -1.0])
    assert best_rows(v, 4, "max").tolist() == [1, 3, 2, 4]
    assert best_rows(v, 3, "min").tolist() == [6, 0, 2]
    assert best_rows(v, 20, "max").tolist() == [1, 3, 2, 4, 5, 0, 6]
    for k in range(1, 8):
        for direction in ("max", "min"):
            assert best_rows(v, k, direction).tolist() == ref.top_k(
                v.tolist(), k, largest=direction == "max")


def test_topk_validation():
    with pytest.raises(InvalidData):
        TopK("bogus", "max", 3)
    with pytest.raises(InvalidData):
        TopK("o", "sideways", 3)
    with pytest.raises(InvalidData):
        TopK("o", "max", 0)


def test_histogram_counts_and_clipping():
    covs = toy_covset(3, n=6, d=2)
    edges, counts = scan(covs, 2, 4, Histogram("tc", 8, 0.0, 0.5))
    np.testing.assert_allclose(edges, np.linspace(0.0, 0.5, 9))
    assert counts.shape == (2, 8)
    assert counts.sum(axis=1).tolist() == [count_nplets(6, 2, 4)] * 2
    # everything below lo lands in the first bin, above hi in the last
    tight_edges, tight = scan(covs, 2, 4, Histogram("tc", 2, 0.20, 0.21))
    assert tight.sum(axis=1).tolist() == [count_nplets(6, 2, 4)] * 2


def test_histogram_validation():
    with pytest.raises(InvalidData):
        Histogram("o", 0, 0.0, 1.0)
    with pytest.raises(InvalidData):
        Histogram("o", 4, 1.0, 1.0)


def test_callback_sees_batches_in_enumeration_order():
    covs = toy_covset(4, n=6)
    seen = scan(
        covs, 2, 4,
        Callback(lambda batch, hoi: [batch.row_indices(i) for i in range(batch.batch_size)]),
        batch_size=5, workers=4,
    )
    flat = list(itertools.chain.from_iterable(seen))
    assert flat == list(ref.all_subsets(6, 2, 4))


def test_scan_validation():
    covs = toy_covset(5, n=4)
    with pytest.raises(InvalidData):
        scan(covs, 2, 3, reducer=sorted)  # not a Reducer
    with pytest.raises(InvalidOrderRange):
        scan(covs, 3, 9, TopK("o", "max", 1))
    with pytest.raises(InvalidData):
        scan(covs, 2, 3, TopK("o", "max", 1), workers=0)


def test_scan_progress_counters():
    covs = toy_covset(6, n=6)
    ticks = []
    scan(covs, 2, 4, TopK("o", "max", 1), batch_size=7, progress=ticks.append)
    assert ticks[-1]["nplets"] == ticks[-1]["total"] == count_nplets(6, 2, 4)
    assert [t["batches"] for t in ticks] == list(range(1, len(ticks) + 1))
    assert all(t["order"] in (2, 3, 4) for t in ticks)
    nplets = [t["nplets"] for t in ticks]
    assert nplets == sorted(nplets)
    assert all(t["fallback_rows"] == 0 for t in ticks)  # a PD input needs no direct path


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9), d=st.integers(1, 3),
       bias_correct=st.booleans(), batch_size=st.sampled_from([1, 7, 64]),
       workers=st.sampled_from([1, 2]), min_order=st.integers(1, 3))
def test_lattice_scan_rows_match_direct_path_and_reference(
        seed, n, d, bias_correct, batch_size, workers, min_order):
    t = 40
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(d):
        a = rng.standard_normal((2 * n, n))
        sigmas.append(a.T @ a / (2 * n) + 0.3 * np.eye(n))
    covs = CovSet([CovarianceMatrix(sig, n_samples_used=t) for sig in sigmas])

    def check(batch, hoi):
        direct = compute_hoi_batch(covs, batch, bias_correct=bias_correct)
        for m in MEASURES:
            np.testing.assert_allclose(getattr(hoi, m), getattr(direct, m), rtol=0, atol=1e-12)
        for i in range(batch.batch_size):
            idx = batch.row_indices(i)
            for dd, sig in enumerate(sigmas):
                want = ref.measures(sig, idx, t_samples=t if bias_correct else None)
                got = [getattr(hoi, m)[i, dd] for m in MEASURES]
                # criterion 01's tolerances
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)
        if batch.order == 1:
            # order-1 rows read table 0: their leave-one-out term, and so
            # their dtc, is exactly zero
            assert (hoi.dtc == 0.0).all()
        return batch.batch_size

    ticks = []
    sizes = scan(covs, min_order, n, Callback(check), batch_size=batch_size,
                 bias_correct=bias_correct, workers=workers, progress=ticks.append)
    assert sum(sizes) == count_nplets(n, min_order, n)
    assert ticks[-1]["fallback_rows"] == 0


def test_collinear_triple_rows_take_the_direct_path():
    # x2 = x0 + x1 exactly: every n-plet holding 0, 1 and 2 is singular, the
    # lattice does not trust it, and its rows must get the direct path's
    # jittered values
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 4))
    sigma = np.eye(7)
    sigma[:3, :3] = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]
    sigma[3:, 3:] = a.T @ a / 20
    covs = CovSet([CovarianceMatrix(sigma)])
    for batch_size in (1, 5, 100):
        ticks, seen = [], []
        scan(covs, 2, 7, Callback(lambda batch, hoi: seen.append((batch, hoi))),
             batch_size=batch_size, progress=ticks.append)
        assert ticks[-1]["fallback_rows"] >= 2 ** 4  # every superset of the triple
        for batch, hoi in seen:
            direct = compute_hoi_batch(covs, batch)
            singular = [i for i in range(batch.batch_size)
                        if {0, 1, 2} <= set(batch.row_indices(i))]
            for m in MEASURES:
                got, want = getattr(hoi, m), getattr(direct, m)
                np.testing.assert_array_equal(got[singular], want[singular])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_indefinite_input_raises_the_direct_paths_coordinates():
    # dataset 1 couples variables 3 and 4 beyond correlation 1: no jitter
    # rescues a pair holding both
    good = toy_covset(10, n=5).covs[0]
    bad = np.eye(5)
    bad[3, 4] = bad[4, 3] = 2.0
    covs = CovSet([good, CovarianceMatrix(bad)])
    for batch_size in (1, 3, 100):
        for batch in enumerate_order(5, 2, batch_size):
            try:
                compute_hoi_batch(covs, batch)
            except NotPositiveDefinite as err:
                want = err.coords
                break
        with pytest.raises(NotPositiveDefinite) as err:
            scan(covs, 2, 5, TopK("o", "max", 2), batch_size=batch_size, workers=2)
        assert err.value.coords == want


def test_indefinite_input_message_does_not_depend_on_batching():
    # every pair of 2, 5 and 7 is a valid correlation, the triple is
    # indefinite: the message names it, whatever batch it came in
    sigma = np.eye(8)
    for a, b, r in ((2, 5, 0.9), (5, 7, 0.9), (2, 7, -0.9)):
        sigma[a, b] = sigma[b, a] = r
    covs = CovSet([CovarianceMatrix(sigma)])
    spec = ObjectiveSpec(measure="tc", direction="max")
    message = "n-plet (2, 5, 7) of dataset 0 not positive definite even after a jitter retry"
    scans = {
        "scan": lambda b, w: scan(covs, 3, 3, TopK("o", "max", 3), batch_size=b, workers=w),
        "features": lambda b, w: scan(covs, 2, 8, FeatureAccumulator(8), batch_size=b,
                                      workers=w),
    }
    for name, run in scans.items():
        for batch_size in (1, 7, 10000):
            for workers in (1, 2):
                with pytest.raises(NotPositiveDefinite) as err:
                    run(batch_size, workers)
                assert str(err.value) == message, name
    searches = {
        # from pairs, the triple is an extension of the beam's best pairs
        "greedy growth": lambda: greedy(covs, spec, 2, 4, kappa=3),
        "greedy seed": lambda: greedy(covs, spec, 3, 4, kappa=3),
    }
    # the cap sizes greedy's seed batches and border groups: one row, seven
    # rows of order 3, or whole orders
    for cap in (0, 7 * 16 * 2 ** 2, nplet_engine.LATTICE_TABLE_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nplet_engine, "LATTICE_TABLE_BYTES", cap)
            for name, run in searches.items():
                with pytest.raises(NotPositiveDefinite) as err:
                    run()
                assert str(err.value) == message, (name, cap)


def degenerate_covset(seed, n, kinds):
    """One covariance per kind, each singular, near-singular or indefinite."""
    rng = np.random.default_rng(seed)
    covs = []
    for kind in kinds:
        a = rng.standard_normal((2 * n, n))
        sigma = a.T @ a / (2 * n) + 0.3 * np.eye(n)
        if kind == "combination":  # x_j = w_i x_i + w_l x_l exactly
            i, l, j = rng.choice(n, 3, replace=False)
            t = np.eye(n)
            t[j, j] = 0.0
            t[j, [i, l]] = rng.uniform(0.5, 2.0, 2)
            sigma = t @ sigma @ t.T
        elif kind == "eigenvalue":
            vals, vecs = np.linalg.eigh(sigma)
            vals[0] = 1e-13
            sigma = (vecs * vals) @ vecs.T
        elif kind == "triple":  # every pair a valid correlation, the triple indefinite
            i, j, l = rng.choice(n, 3, replace=False)
            sd = np.sqrt(np.diagonal(sigma))
            for a, b, r in ((i, j, 0.9), (j, l, 0.9), (i, l, -0.9)):
                sigma[a, b] = sigma[b, a] = r * sd[a] * sd[b]
        else:  # "correlation": one pair beyond correlation 1
            i, j = rng.choice(n, 2, replace=False)
            sigma[i, j] = sigma[j, i] = rng.uniform(1.001, 2.0) * np.sqrt(sigma[i, i] * sigma[j, j])
        covs.append(CovarianceMatrix(0.5 * (sigma + sigma.T)))
    return CovSet(covs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8),
       kinds=st.lists(st.sampled_from(["combination", "eigenvalue", "correlation"]),
                      min_size=1, max_size=2),
       batch_size=st.sampled_from([1, 7, 64]), workers=st.sampled_from([1, 2]),
       min_order=st.integers(1, 3), walk=st.booleans())
def test_near_singular_scan_matches_the_direct_path(
        seed, n, kinds, batch_size, workers, min_order, walk):
    # Rows the lattice cannot serve take the direct path and get the sums
    # of entropy_terms' values bit for bit; rows it serves, on the pivot
    # route or (with the pivot route cleared) the walk, hold the log-determinants
    # of their own and their minors' submatrices within 1e-12, and every
    # pivot behind them clears the floor. Both paths raise the same
    # NotPositiveDefinite coordinates, and no value is left non-finite.
    covs = degenerate_covset(seed, n, kinds)
    lattice_sums, direct_logdets = nplet_engine.LogdetLattice.sums, nplet_engine._direct_logdets
    sums_of, direct = {}, set()

    def recorded_sums(self, batch):
        sums, count = lattice_sums(self, batch)
        sums_of[id(batch)] = sums
        return sums, count

    def recorded_direct(c, batch):
        direct.update(map(tuple, batch.indices.tolist()))
        return direct_logdets(c, batch)

    seen, raised = [], None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nplet_engine.LogdetLattice, "sums", recorded_sums)
        mp.setattr(nplet_engine, "_direct_logdets", recorded_direct)
        if walk:
            mp.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
        try:
            scan(covs, min_order, n, Callback(lambda batch, hoi: seen.append((batch, hoi))),
                 batch_size=batch_size, workers=workers)
        except NotPositiveDefinite as err:
            raised = err.coords

    wanted = None
    for batch in itertools.chain.from_iterable(
            enumerate_order(n, k, batch_size) for k in range(min_order, n + 1)):
        try:
            compute_hoi_batch(covs, batch)
        except NotPositiveDefinite as err:
            wanted = err.coords
            break
    assert raised == wanted

    variances = np.diagonal(covs.stacked(), axis1=1, axis2=2).T  # (N, D)

    def half_logdets(rows):
        mats = extract_subcov_batch(covs, NpletBatch(n, indices=rows)).matrices
        chol = np.linalg.cholesky(mats)
        # the pivot route's floor: every Cholesky pivot of a served set
        pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
        assert (pivots >= nplet_engine.BORDER_RTOL * variances[rows].transpose(0, 2, 1)).all()
        return 0.5 * _factor_logdet(chol)

    half_log_var = 0.5 * np.log(variances)  # table 1

    for batch, hoi in seen:
        (joint_sum, singles_sum, loo_sum), k = sums_of[id(batch)], batch.order
        assert all(np.isfinite(getattr(hoi, m)).all() for m in MEASURES)
        rows = batch.indices.tolist()
        on_direct = [i for i, row in enumerate(rows) if tuple(row) in direct]
        if on_direct:
            want = entropy_terms(covs, NpletBatch(n, indices=[rows[i] for i in on_direct]))
            for got, wanted in zip((joint_sum, singles_sum, loo_sum), want):
                np.testing.assert_array_equal(got[on_direct], wanted)
        for i in sorted(set(range(len(rows))) - set(on_direct)):
            row = rows[i]
            # table 1 is 1/2 log sigma_ii whatever min_order is, as are order-1 joints
            joint = half_log_var[row[0]] if k == 1 else half_logdets([row])[0]
            np.testing.assert_allclose(joint_sum[i], joint, rtol=0, atol=1e-12)
            np.testing.assert_allclose(singles_sum[i], half_log_var[row].sum(axis=0),
                                       rtol=0, atol=1e-12)
            if k == 1:
                loo = 0.0
            elif k == 2:
                loo = half_log_var[row].sum(axis=0)
            else:
                loo = half_logdets([row[:j] + row[j + 1:] for j in range(k)]).sum(axis=0)
            np.testing.assert_allclose(loo_sum[i], loo, rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8), d=st.integers(1, 2),
       bias_correct=st.booleans(), batch_size=st.sampled_from([1, 7, 64]))
def test_lattice_scan_is_permutation_equivariant(seed, n, d, bias_correct, batch_size):
    t = 40
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(d):
        a = rng.standard_normal((2 * n, n))
        sigmas.append(a.T @ a / (2 * n) + 0.3 * np.eye(n))
    perm = rng.permutation(n)  # variable v of the image is variable perm[v]

    def measures_by_nplet(mats):
        covs = CovSet([CovarianceMatrix(m, n_samples_used=t) for m in mats])
        out, ticks = {}, []

        def keep(batch, hoi):
            for i, row in enumerate(batch.indices.tolist()):
                out[tuple(row)] = np.array([getattr(hoi, m)[i] for m in MEASURES])

        scan(covs, 1, n, Callback(keep), batch_size=batch_size,
             bias_correct=bias_correct, progress=ticks.append)
        assert ticks[-1]["fallback_rows"] == 0
        return out

    base = measures_by_nplet(sigmas)
    image = measures_by_nplet([sig[np.ix_(perm, perm)] for sig in sigmas])
    assert len(base) == len(image) == count_nplets(n, 1, n)
    for row, got in image.items():
        np.testing.assert_allclose(got, base[tuple(sorted(perm[list(row)]))], rtol=0, atol=1e-12)
    for row, got in base.items():
        for dd, sig in enumerate(sigmas):
            want = ref.measures(sig, row, t_samples=t if bias_correct else None)
            # criterion 01's tolerances
            np.testing.assert_allclose(got[:, dd], want, rtol=1e-9, atol=1e-11)


def measure_rows(covs, lo, hi, **kw):
    """(4, rows, D) measures of a scan, rows in enumeration order."""
    parts = scan(covs, lo, hi, Callback(
        lambda batch, hoi: np.stack([getattr(hoi, m) for m in MEASURES])), **kw)
    return np.concatenate(parts, axis=1)


def walk_covset(seed, n, d, t):
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(d):
        a = rng.standard_normal((2 * n, n))
        sigmas.append(a.T @ a / (2 * n) + 0.3 * np.eye(n))
    return CovSet([CovarianceMatrix(sig, n_samples_used=t) for sig in sigmas])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), bias_correct=st.booleans(),
       order=st.one_of(
           st.tuples(st.integers(26, 40), st.integers(3, 4)),
           st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))))
def test_walk_orders_match_the_direct_path_and_ignore_batching(seed, d, bias_correct, order):
    # with the pivot route cleared every order walks: orders 3..4 of N >= 26,
    # and any order of a small N, orders 1 and 2 included
    n, k = order
    t = 3 * n
    covs = walk_covset(seed, n, d, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
        lattice = nplet_engine.LogdetLattice(covs, k, k, bias_correct)
        assert not lattice.pivots

        ticks = []
        base = measure_rows(covs, k, k, bias_correct=bias_correct, progress=ticks.append)
        assert ticks[-1]["fallback_rows"] == 0
        rows = np.concatenate([batch.indices for batch in enumerate_order(n, k, 10000)])
        direct = compute_hoi_batch(covs, NpletBatch(n, indices=rows), bias_correct=bias_correct)
        want = np.stack([getattr(direct, m) for m in MEASURES])
        np.testing.assert_allclose(base, want, rtol=0, atol=1e-12)
        total = len(rows)
        for at in sorted({0, total // 2, total - 1}):
            for dd in range(d):
                oracle = ref.measures(covs.covs[dd].sigma, rows[at],
                                      t_samples=t if bias_correct else None)
                np.testing.assert_allclose(base[:, at, dd], oracle, rtol=0, atol=1e-12)

        for batch_size, workers in ((10000, 2), (64, 1), (64, 2)):
            got = measure_rows(covs, k, k, bias_correct=bias_correct,
                               batch_size=batch_size, workers=workers)
            np.testing.assert_array_equal(got, base)
        # batch sizes 1 and 7 on three windows: the first rows (one prefix with
        # many children), the middle and the last rows (prefixes with few)
        lattice.open(k)
        for lo in sorted({0, total // 2, max(total - 150, 0)}):
            for batch_size in (1, 7):
                for at in range(lo, min(lo + 150, total), batch_size):
                    batch = NpletBatch(n, indices=rows[at:at + batch_size])
                    sums, _ = lattice.sums(batch)
                    hoi = hoi_from_sums(*sums, batch.orders())
                    got = np.stack([getattr(hoi, m) for m in MEASURES])
                    np.testing.assert_array_equal(got, base[:, at:at + batch_size])


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(26, 40), k=st.integers(3, 4),
       kinds=st.lists(st.sampled_from(["combination", "eigenvalue", "correlation", "triple"]),
                      min_size=1, max_size=2),
       workers=st.sampled_from([1, 2]))
def test_bordered_near_singular_orders_raise_the_direct_paths_coordinates(
        seed, n, k, kinds, workers):
    # walk orders border every n-plet down its prefixes; rows they cannot
    # trust take the direct path, with its values or its coordinates
    covs = degenerate_covset(seed, n, kinds)
    seen, raised = [], None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
        assert not nplet_engine.LogdetLattice(covs, k, k, False).pivots
        try:
            scan(covs, k, k, Callback(lambda batch, hoi: seen.append(hoi)),
                 batch_size=64, workers=workers)
        except NotPositiveDefinite as err:
            raised = err.coords
    wanted = None
    for batch in enumerate_order(n, k, 64):
        try:
            compute_hoi_batch(covs, batch)
        except NotPositiveDefinite as err:
            wanted = err.coords
            break
    assert raised == wanted
    for hoi in seen:
        assert all(np.isfinite(getattr(hoi, m)).all() for m in MEASURES)


@pytest.mark.parametrize("kinds", [["combination"] * 2, ["combination", "correlation"]])
def test_a_cleared_route_walks_as_a_zero_cap_does_in_whole_batch_groups(kinds):
    # clearing the pivot route and zeroing LATTICE_TABLE_BYTES both send
    # every order down the walk, with the same bits, fallback rows and first
    # NotPositiveDefinite coordinate; but a zero cap also walks one row per
    # batch, where the cleared route borders each batch as one group
    covs = degenerate_covset(3, 26, kinds)
    border = nplet_engine._border
    runs = []
    for patch in (("_pivot_orders", lambda *_: set()), ("LATTICE_TABLE_BYTES", 0)):
        calls, ticks, got, raised = [], [], None, None

        def counted(sigma, members, v, inv, logdet):
            calls.append(len(v))
            return border(sigma, members, v, inv, logdet)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nplet_engine, *patch)
            mp.setattr(nplet_engine, "_border", counted)
            assert not nplet_engine.LogdetLattice(covs, 3, 4, False).pivots
            try:
                got = measure_rows(covs, 3, 4, progress=ticks.append)
            except NotPositiveDefinite as err:
                # the first failing (row, dataset), rows counted from the scan's start
                (row, dataset), seen = err.coords[0], ticks[-1]["nplets"] if ticks else 0
                raised = (seen + row, dataset, str(err))
        runs.append({"measures": got, "fallback": ticks[-1]["fallback_rows"] if ticks else 0,
                     "raised": raised, "calls": calls})
    cleared, zero = runs
    assert cleared["raised"] == zero["raised"]
    assert (cleared["raised"] is not None) == (kinds[1] == "correlation")
    if cleared["raised"] is not None:
        return
    np.testing.assert_array_equal(cleared["measures"], zero["measures"])
    assert cleared["fallback"] == zero["fallback"] > 0
    # per batch of order k: k - 1 descent levels, then its leaf groups
    at = 0
    for k, size in ((3, 2600), (4, 10000), (4, 4950)):
        at += k
        assert cleared["calls"][at - 1] == size
    assert len(cleared["calls"]) == at
    assert zero["calls"] == [1] * (3 * 2600 + 4 * 14950)  # one-row batches


def test_the_cap_bounds_every_walk_batch(monkeypatch):
    # a walk batch holds no more rows than its prefix tree and gathered
    # parent inverses fit LATTICE_TABLE_BYTES, below batch_size here: 300
    # rows at order 6, 208 at 7 and 153 at 8 of N=12, D=8; its values,
    # fallback rows and error are the whole-order batches' of the default cap
    n, d = 12, 8
    monkeypatch.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
    well = walk_covset(4, n, d - 1, 3 * n).covs
    singular = CovSet([degenerate_covset(4, n, ["combination"]).covs[0], *well])
    indefinite = np.eye(n)  # beyond correlation 1: the first 210 rows of order 6 fail
    indefinite[0, 1] = indefinite[1, 0] = 1.5
    indefinite = CovSet([*well, CovarianceMatrix(indefinite)])
    descent, sizes = nplet_engine._prefix_descent, []

    def recorded(sigma, idx):
        sizes.append((idx.shape[1] + 1, len(idx)))
        return descent(sigma, idx)

    def run(covs, cap):
        seen, ticks, raised = [], [], None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nplet_engine, "LATTICE_TABLE_BYTES", cap)
            mp.setattr(nplet_engine, "_prefix_descent", recorded)
            try:
                scan(covs, 6, 8, Callback(lambda batch, hoi: seen.append(
                    (batch.order, batch.batch_size,
                     np.stack([getattr(hoi, m) for m in MEASURES])))), progress=ticks.append)
            except NotPositiveDefinite as err:
                raised = (err.coords, str(err))
        return seen, ticks[-1]["fallback_rows"] if ticks else 0, raised

    base = run(singular, nplet_engine.LATTICE_TABLE_BYTES)
    assert [size for _, size, _ in base[0]] == [924, 792, 495]  # whole orders
    sizes.clear()
    cap, bound = 300 * 16 * d * 5 ** 2, {6: 300, 7: 208, 8: 153}
    seen, fallback, raised = run(singular, cap)
    assert [size for _, size, _ in seen] == [300] * 3 + [24] + [208] * 3 + [168] + [153] * 3 + [36]
    assert all(size <= bound[k] for k, size in sizes) and len(sizes) == len(seen)
    np.testing.assert_array_equal(np.concatenate([m for *_, m in seen], axis=1),
                                  np.concatenate([m for *_, m in base[0]], axis=1))
    assert fallback == base[1] > 0 and raised is None
    want = run(indefinite, nplet_engine.LATTICE_TABLE_BYTES)[2]
    assert want is not None and run(indefinite, cap)[2] == want


@st.composite
def block_systems(draw):
    """2-4 covariance blocks of 1-4 variables each: random positive
    definite matrices and R and S systems."""
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["spd", "r", "s"]))
        if kind == "spd":
            size = draw(st.integers(1, 4))
            a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
                (2 * size, size))
            blocks.append(a.T @ a / (2 * size) + 0.3 * np.eye(size))
        else:
            make = r_system_cov if kind == "r" else s_system_cov
            blocks.append(make(draw(st.integers(1, 3)), draw(st.floats(0.3, 1.5))).sigma)
    return blocks


@settings(max_examples=25, deadline=None)
@given(blocks=block_systems(), seed=st.integers(0, 2**32 - 1))
def test_measures_add_over_independent_blocks(blocks, seed):
    # tc, dtc, o and s are additive over independent subsystems (Rosas et
    # al. 2019, Phys. Rev. E 100:032305): an n-plet spread over the blocks
    # of a block-diagonal covariance scores the sum of its parts' oracle
    # values, on the direct path and on either scan route
    sigma = block_concat([CovarianceMatrix(b) for b in blocks]).sigma
    n = len(sigma)
    covs = CovSet([CovarianceMatrix(sigma)])
    starts = np.cumsum([0] + [len(b) for b in blocks])
    rng = np.random.default_rng(seed)
    rows = sorted({tuple(sorted(rng.choice(n, rng.integers(1, n + 1), replace=False).tolist()))
                   for _ in range(6)})
    want = {}
    for row in rows:
        want[row] = np.zeros(4)
        for b, lo in zip(blocks, starts):
            part = [v - lo for v in row if lo <= v < lo + len(b)]
            if part:
                want[row] += ref.measures(b, part)
    masks = np.zeros((len(rows), n), dtype=bool)
    for i, row in enumerate(rows):
        masks[i, list(row)] = True
    direct = compute_hoi_batch(covs, NpletBatch(n, masks=masks))
    for i, row in enumerate(rows):
        got = [getattr(direct, m)[i, 0] for m in MEASURES]
        np.testing.assert_allclose(got, want[row], rtol=0, atol=1e-12)

    def keep(batch, hoi):
        return {row: [getattr(hoi, m)[i, 0] for m in MEASURES]
                for i, row in enumerate(map(tuple, batch.indices.tolist())) if row in want}

    lo, hi = min(map(len, rows)), max(map(len, rows))
    for walk in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if walk:
                mp.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
            scanned = {}
            for found in scan(covs, lo, hi, Callback(keep)):
                scanned.update(found)
        assert sorted(scanned) == rows
        for row in rows:
            np.testing.assert_allclose(scanned[row], want[row], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_singular_scan_values_do_not_depend_on_batch_size_or_workers(seed):
    # a singular submatrix whose Cholesky passes on rounding noise is served
    # by the lattice; one that fails goes direct, whichever batch holds it
    covs = degenerate_covset(seed, 8, ["combination"])
    base = measure_rows(covs, 1, 8, batch_size=1)
    for batch_size, workers in ((7, 1), (64, 1), (1, 2), (7, 2), (64, 2)):
        got = measure_rows(covs, 1, 8, batch_size=batch_size, workers=workers)
        np.testing.assert_array_equal(got, base)


def test_orders_over_the_table_cap_walk_with_no_fallback_rows(monkeypatch):
    covs = toy_covset(8, n=8, d=2)
    base = measure_rows(covs, 2, 8)
    # 60 entries per dataset: C(8, k - 1) + C(8, k) exceeds it for k = 3..6,
    # and no order fits its states too, so every order walks
    monkeypatch.setattr(nplet_engine, "LATTICE_TABLE_BYTES", 8 * 2 * 60)
    assert not nplet_engine.LogdetLattice(covs, 2, 8, False).pivots
    ticks = []
    capped = measure_rows(covs, 2, 8, batch_size=9, progress=ticks.append)
    np.testing.assert_allclose(capped, base, rtol=0, atol=1e-12)
    assert ticks[-1]["fallback_rows"] == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), d=st.integers(1, 3),
       min_order=st.integers(1, 3), bias_correct=st.booleans())
def test_pivot_tables_match_slogdet(seed, n, d, min_order, bias_correct):
    rng = np.random.default_rng(seed)
    sigmas = []
    for _ in range(d):
        a = rng.standard_normal((2 * n, n))
        sigmas.append(a.T @ a / (2 * n) + 0.3 * np.eye(n))
    covs = CovSet([CovarianceMatrix(sig, n_samples_used=40) for sig in sigmas])
    lattice = nplet_engine.LogdetLattice(covs, min_order, n, bias_correct)
    assert lattice.pivots == set(range(min_order, n + 1))
    stacked = np.stack(sigmas)
    # tables hold excess entropies: 1/2 logdet less the bias at the order
    bias = [ref.entropy_bias(m, 40) if bias_correct else 0.0 for m in range(n + 1)]
    for k in range(min_order, n + 1):
        lattice.open(k)
        for m in (k - 1, k):  # table min_order - 1 is descended from the empty set
            if m == 0:
                continue
            rows = nplet_engine._colex_unrank(np.arange(count_nplets(n, m, m)), m, lattice.binom)
            sign, want = np.linalg.slogdet(stacked[:, rows[:, :, None], rows[:, None, :]])
            assert (sign == 1).all()
            np.testing.assert_allclose(lattice.tables[m], 0.5 * want.T - bias[m],
                                       rtol=0, atol=1e-12)


def test_orders_over_the_state_cap_walk_without_factoring(monkeypatch):
    covs = toy_covset(13, n=10, d=1)
    ticks = []
    base = measure_rows(covs, 1, 10, progress=ticks.append)
    assert nplet_engine.LogdetLattice(covs, 1, 10, False).pivots == set(range(1, 11))
    # 880 floats: orders 1 and 2 fit their tables and states, orders 3..10 walk
    monkeypatch.setattr(nplet_engine, "LATTICE_TABLE_BYTES", 8 * 880)
    assert nplet_engine.LogdetLattice(covs, 1, 10, False).pivots == {1, 2}
    factored = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factored.append(np.shape(a)[-1])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    capped_ticks = []
    capped = measure_rows(covs, 1, 10, batch_size=9, progress=capped_ticks.append)
    assert factored == []
    np.testing.assert_allclose(capped, base, rtol=0, atol=1e-12)
    assert capped_ticks[-1]["fallback_rows"] == ticks[-1]["fallback_rows"] == 0


@pytest.mark.parametrize("n, d, pivot", [(26, 1, True), (60, 2, False)])
def test_wide_scans_never_factor(monkeypatch, n, d, pivot):
    # order 3 of N=26 fits the pivot route, of N=60 it walks; neither factors
    def no_cholesky(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    covs = walk_covset(n, n, d, 3 * n)
    assert nplet_engine.LogdetLattice(covs, 3, 3, False).pivots == ({3} if pivot else set())
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    ticks = []
    top = scan(covs, 3, 3, TopK("s", "max", 3), workers=2, progress=ticks.append)
    assert [len(per_d) for per_d in top] == [3] * d
    assert ticks[-1]["nplets"] == count_nplets(n, 3, 3) and ticks[-1]["fallback_rows"] == 0


def test_pivot_served_scans_never_factor(monkeypatch):
    def no_cholesky(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    covs = toy_covset(14, n=12, d=2)
    assert nplet_engine.LogdetLattice(covs, 1, 12, False).pivots == set(range(1, 13))
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    ticks = []
    top = scan(covs, 1, 12, TopK("o", "max", 3), batch_size=500, workers=2,
               progress=ticks.append)
    assert [len(per_d) for per_d in top] == [3, 3]
    assert ticks[-1]["nplets"] == 2 ** 12 - 1 and ticks[-1]["fallback_rows"] == 0


def direct_measure_rows(covs, lo, hi, bias_correct):
    """(4, rows, D) compute_hoi_batch measures in scan order, one call per order."""
    n = covs.n_variables
    parts = []
    for k in range(lo, hi + 1):
        rows = np.concatenate([batch.indices for batch in enumerate_order(n, k)])
        hoi = compute_hoi_batch(covs, NpletBatch(n, indices=rows), bias_correct=bias_correct)
        parts.append(np.stack([getattr(hoi, m) for m in MEASURES]))
    return np.concatenate(parts, axis=1)


def test_pivot_scans_skip_per_row_terms(monkeypatch):
    # pivot orders read J, S and L straight from the tables: no per-row
    # terms are summed, so a scan completes with _excess_sums broken
    covs = walk_covset(5, 10, 2, 40)
    assert nplet_engine.LogdetLattice(covs, 1, 10, True).pivots == set(range(1, 11))
    want = direct_measure_rows(covs, 1, 10, bias_correct=True)

    def no_terms(*args, **kwargs):
        raise AssertionError("_excess_sums called")

    monkeypatch.setattr(nplet_engine, "_excess_sums", no_terms)
    ticks = []
    got = measure_rows(covs, 1, 10, bias_correct=True, progress=ticks.append)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert ticks[-1]["fallback_rows"] == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9), d=st.integers(1, 3),
       bias_correct=st.booleans(), batch_size=st.integers(1, 50),
       workers=st.sampled_from([1, 2]))
def test_pivot_sums_match_the_direct_path_and_ignore_batching(
        seed, n, d, bias_correct, batch_size, workers):
    t = 3 * n
    covs = walk_covset(seed, n, d, t)
    assert nplet_engine.LogdetLattice(covs, 1, n, bias_correct).pivots == set(range(1, n + 1))
    base = measure_rows(covs, 1, n, bias_correct=bias_correct)
    got = measure_rows(covs, 1, n, bias_correct=bias_correct, batch_size=batch_size,
                       workers=workers)
    np.testing.assert_array_equal(got, base)
    np.testing.assert_allclose(base, direct_measure_rows(covs, 1, n, bias_correct),
                               rtol=0, atol=1e-12)
    # order 2's S and L read the same singles: o is exactly 0
    assert (base[MEASURES.index("o"), n:n + n * (n - 1) // 2] == 0.0).all()
    rows = [tuple(row) for k in range(1, n + 1) for row in itertools.combinations(range(n), k)]
    for at in np.random.default_rng(seed).choice(len(rows), 5, replace=False):
        for dd in range(d):
            want = ref.measures(covs.covs[dd].sigma, rows[at],
                                t_samples=t if bias_correct else None)
            np.testing.assert_allclose(base[:, at, dd], want, rtol=0, atol=1e-12)


def test_threaded_pivot_scans_equal_the_serial_scan_bitwise():
    covs = toy_covset(12, n=10, d=2)
    assert nplet_engine.LogdetLattice(covs, 2, 10, False).pivots == set(range(2, 11))
    assert_threads_change_nothing(covs, 2, 10, batch_size=3)


def test_threaded_scans_from_pivot_to_walk_orders_are_bitwise(monkeypatch):
    covs = toy_covset(12, n=10, d=2)
    # 880 floats per dataset: orders 1 and 2 pivot, orders 3..10 walk
    monkeypatch.setattr(nplet_engine, "LATTICE_TABLE_BYTES", 2 * 8 * 880)
    assert nplet_engine.LogdetLattice(covs, 1, 10, False).pivots == {1, 2}
    assert_threads_change_nothing(covs, 1, 10, batch_size=3)


def test_a_threaded_scan_opens_one_pool(monkeypatch):
    pools = []

    class Counted(scanner.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scanner, "ThreadPoolExecutor", Counted)
    covs = toy_covset(13, n=8, d=2)
    got = measure_rows(covs, 1, 8, batch_size=5, workers=2)
    assert len(pools) == 1
    np.testing.assert_array_equal(got, measure_rows(covs, 1, 8, batch_size=5))


def assert_threads_change_nothing(covs, lo, hi, batch_size):
    # more workers than cores, small batches and a short switch interval: a
    # table replaced while read, or state shared between batches, shows as
    # a fallback row or a changed bit
    base = measure_rows(covs, lo, hi, batch_size=batch_size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ticks = []
        got = measure_rows(covs, lo, hi, batch_size=batch_size, workers=8,
                           progress=ticks.append)
    finally:
        sys.setswitchinterval(interval)
    assert ticks[-1]["fallback_rows"] == 0
    np.testing.assert_array_equal(got, base)


def test_exhaustive_paths_never_invert(monkeypatch):
    def no_inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    covs = toy_covset(11, n=7, d=2)
    assert len(scan(covs, 1, 7, TopK("o", "max", 3), batch_size=16, workers=2)[0]) == 3
    assert len(extract_features(covs)) == 2
    res = greedy(covs, ObjectiveSpec("o", "max"), start_order=3, target_order=3, kappa=4)
    assert res.best.order == 3
    # every other entry point: the direct path, fixed and mixed, greedy
    # restarts, anneal's direct moves on singular input, and the copula
    # helpers
    assert compute_hoi_batch(covs, NpletBatch(7, indices=[[0, 2, 5], [1, 3, 4]])).o.shape == (2, 2)
    masks = np.zeros((3, 7), dtype=bool)
    masks[0, :2] = masks[1, 2:5] = masks[2, :] = True
    assert compute_hoi_batch(covs, NpletBatch(7, masks=masks)).o.shape == (3, 2)
    res = greedy(covs, ObjectiveSpec("o", "max"), start_order=3, target_order=5, kappa=4,
                 restarts=2)
    assert res.best.order == 5
    cov = block_concat([r_system_cov(3, 0.9), s_system_cov(3, 1.08), CovarianceMatrix(np.eye(4))])
    x = sample_gaussian(cov, 400, seed=2)
    sigma = estimate_covariance(copula_transform(x)).sigma
    t = np.eye(12)
    t[11] = 0.0
    t[11, [0, 4]] = 1.0  # x_11 = x_0 + x_4, as in the singular anneal test
    chains = anneal(CovSet([CovarianceMatrix(t @ sigma @ t.T)]), ObjectiveSpec("tc", "max"),
                    AnnealSchedule(max_iters=300, min_order=3, max_order=8), kappa=8, seed=0)
    assert any({0, 4, 11} <= set(np.flatnonzero(m)) for m in chains.masks)
    assert np.isfinite(gaussian_entropy_nats(sigma).nats)
    assert np.isfinite(copula_entropy(x).nats)


def test_lattice_fallback_rows_equal_compute_hoi_batch_bitwise():
    # x8 = x0 + x3 in both datasets, so the n-plets holding 0, 3 and 8, and
    # only those, take the direct path, on pivot orders (a pivot under the
    # floor) and on walk orders (member 8 untrusted). Their measures must
    # be compute_hoi_batch's bit for bit: at D = 2 and order >= 8 that needs
    # the leave-one-out terms summed in compute_hoi_batch's memory order
    t = np.eye(9)
    t[8] = 0.0
    t[8, [0, 3]] = 1.0
    terms_of = nplet_engine.entropy_terms

    def recorded(c, batch, bias_correct=False):
        direct.update(batch.row_indices(i) for i in range(batch.batch_size))
        return terms_of(c, batch, bias_correct)

    wide = 0
    for seed in range(30):
        sigmas = [t @ c.sigma @ t.T for c in toy_covset(seed, n=9, d=2).covs]
        covs = CovSet([CovarianceMatrix(0.5 * (s + s.T)) for s in sigmas])
        for walk in (False, True):  # every order pivots, then walks
            direct, seen = set(), []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(nplet_engine, "entropy_terms", recorded)
                if walk:
                    mp.setattr(nplet_engine, "_pivot_orders", lambda *_: set())
                scan(covs, 1, 9, Callback(lambda batch, hoi: seen.append((batch, hoi))))
            assert direct == {row for row in ref.all_subsets(9, 3, 9) if {0, 3, 8} <= set(row)}
            for batch, hoi in seen:
                on = [i for i, row in enumerate(batch.indices.tolist()) if tuple(row) in direct]
                if not on:
                    continue
                wide += batch.order >= 8
                want = compute_hoi_batch(covs, NpletBatch(9, indices=batch.indices[on]))
                for m in MEASURES:
                    np.testing.assert_array_equal(getattr(hoi, m)[on], getattr(want, m))
        # rows greedy grows from random parents (extend) take the same rule
        parents, parent, members, rows = random_extensions(seed, 9, 4, 20)
        direct = set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nplet_engine, "entropy_terms", recorded)
            sums, count = nplet_engine.LogdetLattice(covs, 5, 5, False).extend(
                parents, parent, members)
        on = [i for i, row in enumerate(rows.tolist()) if {0, 3, 8} <= set(row)]
        assert on and count == len(on) and direct == {tuple(rows[i].tolist()) for i in on}
        got = hoi_from_sums(*sums, np.full(len(rows), 5))
        want = compute_hoi_batch(covs, NpletBatch(9, indices=rows[on]))
        for m in MEASURES:
            np.testing.assert_array_equal(getattr(got, m)[on], getattr(want, m))
    assert wide  # some direct rows are wide enough to show the summation order


def random_extensions(seed, n, m, p):
    """(parents, parent, members, rows): greedy's one-variable extensions
    of p random m-plets of n variables, parents in increasing tuple order,
    in slot order (members) and sorted (rows)."""
    rng = np.random.default_rng(seed)
    subsets = list(itertools.combinations(range(n), m))
    parents = np.array(sorted(subsets[i] for i in rng.choice(len(subsets), p, replace=False)))
    rows, parent, members = _extensions(parents, n)
    return parents, parent, members, rows


def test_a_lattice_walks_every_order_but_its_open_pivot_order():
    # sums reads tables only for the order open() made current, so a
    # lattice that opened nothing scores any order, pivot orders included
    for bias_correct in (False, True):
        covs = walk_covset(5, 8, 2, 40)
        lattice = nplet_engine.LogdetLattice(covs, 1, 8, bias_correct)
        assert lattice.pivots == set(range(1, 9))
        walked = {}
        for k in range(1, 9):
            batch = NpletBatch(8, indices=list(itertools.combinations(range(8), k)))
            sums, direct = lattice.sums(batch)
            assert direct == 0
            got = hoi_from_sums(*sums, batch.orders())
            want = compute_hoi_batch(covs, batch, bias_correct=bias_correct)
            for m in MEASURES:
                np.testing.assert_allclose(getattr(got, m), getattr(want, m), rtol=0, atol=1e-12)
            walked[k] = batch, sums
        lattice.open(4)  # tables 3 and 4: only order 4 reads them
        for k, (batch, before) in walked.items():
            if k != 4:
                for got, want in zip(lattice.sums(batch)[0], before):
                    np.testing.assert_array_equal(got, want)


def scanned_batches(covs, lo, hi, **kw):
    """(order, indices) of every batch a scan hands its reducer, in turn."""
    return scan(covs, lo, hi, Callback(lambda batch, hoi: (batch.order, batch.indices)), **kw)


@pytest.mark.parametrize("min_order", [1, 2, 3])
@pytest.mark.parametrize("batch_size", [1, 7, 10000])
def test_pivot_batches_are_slices_of_the_lexicographic_rows(min_order, batch_size):
    # min_order > 1 builds the first pivot order's rows from the empty set
    for n in range(min_order, 10):
        covs = toy_covset(n, n=n)
        assert nplet_engine.LogdetLattice(covs, min_order, n, False).pivots == set(
            range(min_order, n + 1))
        got = scanned_batches(covs, min_order, n, batch_size=batch_size)
        want = [(k, b.indices) for k in range(min_order, n + 1)
                for b in enumerate_order(n, k, batch_size)]
        assert len(got) == len(want)
        for (k, idx), (k_want, idx_want) in zip(got, want):
            assert k == k_want and idx.dtype == np.int64
            assert idx.T.flags.c_contiguous  # member columns, as _gather reads them
            np.testing.assert_array_equal(idx, idx_want)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_lex_rows_at_the_first_and_last_order(n):
    rows = nplet_engine._lex_rows(np.zeros((0, 1), dtype=np.uint8), n)
    np.testing.assert_array_equal(rows, np.arange(n)[None])  # order 1
    for _ in range(1, n):
        rows = nplet_engine._lex_rows(rows, n)
    assert rows.dtype == np.uint8
    np.testing.assert_array_equal(rows, np.arange(n)[:, None])  # order N: one column
    # a lattice keeps one byte per member of its open pivot order
    lattice = nplet_engine.LogdetLattice(toy_covset(3, n=n), n, n, False)
    lattice.open(n)
    assert lattice.rows.dtype == np.uint8
    np.testing.assert_array_equal(lattice.rows, rows)


def test_pivot_scans_never_unrank(monkeypatch):
    # pivot orders slice their batches from the lattice's rows: a scan whose
    # every order pivots runs with per-batch unranking broken
    covs = toy_covset(15, n=9, d=2)
    assert nplet_engine.LogdetLattice(covs, 2, 9, False).pivots == set(range(2, 10))
    base = measure_rows(covs, 2, 9, batch_size=11)

    def no_unrank(*args, **kwargs):
        raise AssertionError("unranked")

    monkeypatch.setattr(nplet_engine, "_colex_unrank", no_unrank)
    monkeypatch.setattr(scanner, "enumerate_order", no_unrank)
    np.testing.assert_array_equal(measure_rows(covs, 2, 9, batch_size=11), base)


@pytest.mark.parametrize("cap, pivots", [(8 * 880, {1, 2}), (0, set())])
def test_walk_orders_stream_from_enumerate_order(monkeypatch, cap, pivots):
    # 880 floats per dataset: orders 1 and 2 pivot and the rest walk, so
    # one scan streams from both sources; with a zero cap every order walks
    covs = toy_covset(12, n=10)
    monkeypatch.setattr(nplet_engine, "LATTICE_TABLE_BYTES", cap)
    assert nplet_engine.LogdetLattice(covs, 1, 10, False).pivots == pivots
    enumerated = []
    enumerate_batches = scanner.enumerate_order

    def recorded(n, k, batch_size):
        enumerated.append(k)
        return enumerate_batches(n, k, batch_size)

    monkeypatch.setattr(scanner, "enumerate_order", recorded)
    got = scanned_batches(covs, 1, 10, batch_size=7)
    assert enumerated == [k for k in range(1, 11) if k not in pivots]
    # a walk order streams batches of at most the rows the cap allows
    want = [b.indices for k in range(1, 11)
            for b in enumerate_batches(10, k, min(7, nplet_engine._walk_rows(1, k)))]
    assert len(got) == len(want)
    for (_, idx), idx_want in zip(got, want):
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, idx_want)


@pytest.mark.parametrize("seed", range(3))
def test_lattice_extend_borders_rows_from_any_parents(seed):
    # greedy grows through extend: rows bordered from random parents match
    # the direct path, and from their own prefixes equal the walk's bits
    n = 10
    for bias_correct in (False, True):
        covs = walk_covset(seed, n, 2, 40)
        lattice = nplet_engine.LogdetLattice(covs, 1, n, bias_correct)
        for m in range(1, n):
            parents, parent, members, rows = random_extensions(seed, n, m, min(6, math.comb(n, m)))
            sums, direct = lattice.extend(parents, parent, members)
            assert direct == 0
            got = hoi_from_sums(*sums, np.full(len(rows), m + 1))
            want = compute_hoi_batch(covs, NpletBatch(n, indices=rows), bias_correct=bias_correct)
            for name in MEASURES:
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=0, atol=1e-12)
            batch = NpletBatch(n, indices=list(itertools.combinations(range(n), m + 1)))
            prefixes, at = np.unique(batch.indices[:, :-1], axis=0, return_inverse=True)
            extended, _ = lattice.extend(prefixes, at.reshape(-1), batch.indices)
            for got, want in zip(extended, lattice.sums(batch)[0]):
                np.testing.assert_array_equal(got, want)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_feature_summaries_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((15, 5))
    sigma = a.T @ a / 15 + 0.2 * np.eye(5)
    feats = extract_features(CovSet([CovarianceMatrix(sigma)]))[0]

    all_o, all_tc, mis = [], [], []
    syn = 0
    for idx in ref.all_subsets(5, 2, 5):
        tc, dtc, o, s = ref.measures(sigma, idx)
        if len(idx) == 2:
            mis.append(tc)
        else:
            all_tc.append(tc)
            all_o.append(o)
            syn += o < 0
    assert feats.o_max == pytest.approx(max(all_o), abs=1e-12)
    assert feats.o_min == pytest.approx(min(all_o), abs=1e-12)
    assert feats.o_mean == pytest.approx(np.mean(all_o), abs=1e-12)
    assert feats.tc_mean == pytest.approx(np.mean(all_tc), abs=1e-12)
    assert feats.tc_whole == pytest.approx(ref.measures(sigma, range(5))[0], abs=1e-12)
    assert feats.mi_mean == pytest.approx(np.mean(mis), abs=1e-12)
    assert feats.mi_std == pytest.approx(np.std(mis), abs=1e-12)  # population std
    assert feats.prop_synergistic == pytest.approx(syn / len(all_o), abs=1e-12)


@pytest.mark.parametrize("n", [6, 10, 14])
@pytest.mark.parametrize("rho", [0.3, 0.9])
def test_feature_mi_std_is_zero_when_every_pair_is_alike(n, rho):
    # on an equicorrelated covariance every pairwise MI is the same number,
    # so the spread must not pick up the cancellation of E[x^2] - E[x]^2
    sigma = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    feats = extract_features(CovSet([CovarianceMatrix(sigma)]))[0]
    assert feats.mi_mean == pytest.approx(-0.5 * np.log(1.0 - rho * rho), rel=1e-13)
    assert feats.mi_std <= 1e-15


def test_feature_order_norms_locate_first_extreme():
    # R(3,1) has a tie-free O-information landscape: the whole system
    # (order 4) is the unique max, the pure-source triplet the unique min
    feats = extract_features(CovSet([r_system_cov(3, 1.0)]))[0]
    assert feats.o_max_order_norm == pytest.approx(4 / 4)
    assert feats.o_min_order_norm == pytest.approx(3 / 4)
    assert feats.o_max == pytest.approx(0.5 * np.log(2.0), abs=1e-13)
    assert feats.o_min == pytest.approx(2.5 * np.log(2.0) - 1.5 * np.log(3.0), abs=1e-13)


def test_feature_extremes_on_mirrored_blocks():
    # R(2,1) + S(2,1): extremes are the two blocks; their whole cancels.
    # The minimum is tied across orders 3..5 (adding variables from the
    # other block changes nothing), so only the values are asserted.
    cc = block_concat([r_system_cov(2, 1.0), s_system_cov(2, 1.0)])
    feats = extract_features(CovSet([cc]))[0]
    assert feats.o_max == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-13)
    assert feats.o_min == pytest.approx(-0.5 * np.log(4.0 / 3.0), abs=1e-13)
    assert feats.o_whole == pytest.approx(0.0, abs=1e-13)


def test_identity_features_are_exact_zeros():
    feats = extract_features(CovSet([CovarianceMatrix(np.eye(5))]))[0]
    d = feats.as_dict()
    assert tuple(d) == FEATURE_NAMES
    for name, val in d.items():
        if name in ("o_max_order_norm", "o_min_order_norm"):
            assert val == 3 / 5  # first (trivial) attainment is at order 3
        else:
            assert val == 0.0, name
    assert isinstance(feats, FeatureVector)


def test_features_invariant_to_workers_and_stable_across_batch_size():
    # workers never change batch composition, and the interaction sums fold
    # in one row at a time from the scan's start whatever the batches, so
    # every feature is exact; N=12 has 4017 rows of orders >= 3
    for n, batch_sizes in ((6, (1, 3, 7, 50)), (12, (1, 7, 100, 333))):
        covs = toy_covset(7, n=n, d=3)
        base = extract_features(covs)
        for workers in (2, 4):
            assert extract_features(covs, workers=workers) == base
        for batch_size in batch_sizes:
            for workers in (1, 2):
                other = scan(covs, 2, n, FeatureAccumulator(n), batch_size=batch_size,
                             workers=workers)
                for got, want in zip(other, base):
                    for name in FEATURE_NAMES:
                        assert getattr(got, name) == getattr(want, name), (n, batch_size, name)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n, seed", [(4, 0), (7, 1), (12, 2), (12, 3), (12, 4)])
def test_features_of_a_dataset_do_not_depend_on_its_covset(n, seed, d):
    # each dataset's features are those of a scan of that dataset alone,
    # bit for bit: every order pivots either way, and no reduction mixes
    # datasets (the pairwise MI mean and spread included)
    covs = toy_covset(seed, n=n, d=d)
    assert nplet_engine.LogdetLattice(covs, 2, n, False).pivots == set(range(2, n + 1))
    together = extract_features(covs)
    for cov, got in zip(covs.covs, together):
        assert got == extract_features(CovSet([cov]))[0]


def test_feature_size_limits():
    with pytest.raises(ExhaustiveLimitExceeded):
        extract_features(CovSet([CovarianceMatrix(np.eye(21))]))
    with pytest.raises(InvalidOrderRange):
        extract_features(CovSet([CovarianceMatrix(np.eye(2))]))
    # the refusal threshold is adjustable
    with pytest.raises(ExhaustiveLimitExceeded):
        extract_features(CovSet([CovarianceMatrix(np.eye(8))]), limit=7)
