import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from hoi import (
    Callback,
    CovarianceMatrix,
    CovSet,
    ExhaustiveLimitExceeded,
    FEATURE_NAMES,
    FeatureVector,
    Histogram,
    InvalidData,
    InvalidOrderRange,
    NotPositiveDefinite,
    NpletBatch,
    ObjectiveSpec,
    TopK,
    block_concat,
    compute_hoi_batch,
    count_nplets,
    entropy_terms,
    enumerate_order,
    extract_features,
    extract_subcov_batch,
    greedy,
    r_system_cov,
    s_system_cov,
    scan,
)
from hoi import nplet_engine, scanner
from hoi.copula_core import _cholesky_logdet
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
    # x2 = x0 + x1 exactly: every n-plet holding 0, 1 and 2 is singular, its
    # batched Cholesky fails, and its rows must get the direct path's
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
       min_order=st.integers(1, 3))
def test_near_singular_scan_matches_the_direct_path(
        seed, n, kinds, batch_size, workers, min_order):
    # Rows the lattice cannot serve take the direct path and get
    # entropy_terms' values bit for bit; rows it serves hold the Cholesky
    # log-determinants of their own and their minors' submatrices. Both
    # paths raise the same NotPositiveDefinite coordinates, and no value is
    # left non-finite.
    covs = degenerate_covset(seed, n, kinds)
    lattice_terms, direct_logdets = nplet_engine.LogdetLattice.terms, nplet_engine._direct_logdets
    terms_of, direct = {}, set()

    def recorded_terms(self, batch):
        terms, count = lattice_terms(self, batch)
        terms_of[id(batch)] = terms
        return terms, count

    def recorded_direct(c, batch):
        direct.update(map(tuple, batch.indices.tolist()))
        return direct_logdets(c, batch)

    seen, raised = [], None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nplet_engine.LogdetLattice, "terms", recorded_terms)
        mp.setattr(nplet_engine, "_direct_logdets", recorded_direct)
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

    def half_logdets(rows):
        mats = extract_subcov_batch(covs, NpletBatch(n, indices=rows)).matrices
        return 0.5 * _cholesky_logdet(mats)

    half_log_var = 0.5 * np.log(np.diagonal(covs.stacked(), axis1=1, axis2=2)).T  # table 1

    for batch, hoi in seen:
        got, k = terms_of[id(batch)], batch.order
        assert all(np.isfinite(getattr(hoi, m)).all() for m in MEASURES)
        rows = batch.indices.tolist()
        on_direct = [i for i, row in enumerate(rows) if tuple(row) in direct]
        if on_direct:
            want = entropy_terms(covs, NpletBatch(n, indices=[rows[i] for i in on_direct]))
            np.testing.assert_array_equal(got.excess_joint[on_direct], want.excess_joint)
            np.testing.assert_array_equal(
                got.excess_leave_one_out[on_direct], want.excess_leave_one_out)
        for i in sorted(set(range(len(rows))) - set(on_direct)):
            row = rows[i]
            np.testing.assert_array_equal(got.excess_joint[i], half_logdets([row])[0])
            if k == 1:
                loo = 0.0
            elif k == min_order == 2:  # table 1 built from the diagonal, not by order 1
                loo = half_log_var[row[::-1]].T
            else:
                loo = half_logdets([row[:j] + row[j + 1:] for j in range(k)]).T
            np.testing.assert_array_equal(got.excess_leave_one_out[i], loo)


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


def test_orders_over_the_table_cap_run_on_the_direct_path(monkeypatch):
    covs = toy_covset(8, n=8, d=2)
    base = measure_rows(covs, 2, 8)
    # 60 entries per dataset: C(8, k - 1) + C(8, k) exceeds it for k = 3..6,
    # so orders 3..6 go direct and table 6 is rebuilt before order 7
    monkeypatch.setattr(nplet_engine, "LATTICE_TABLE_BYTES", 8 * 2 * 60)
    ticks = []
    capped = measure_rows(covs, 2, 8, batch_size=9, progress=ticks.append)
    np.testing.assert_allclose(capped, base, rtol=0, atol=1e-12)
    assert ticks[-1]["fallback_rows"] == count_nplets(8, 3, 6)


def test_threaded_table_writes_are_never_lost():
    # more workers than cores, tiny batches and a short switch interval: a
    # lost table write leaves a NaN entry that the next order reads, which
    # shows as a fallback row
    covs = toy_covset(12, n=10, d=2)
    base = measure_rows(covs, 2, 10, batch_size=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ticks = []
        got = measure_rows(covs, 2, 10, batch_size=3, workers=8, progress=ticks.append)
    finally:
        sys.setswitchinterval(interval)
    assert ticks[-1]["fallback_rows"] == 0
    np.testing.assert_array_equal(got, base)


def test_exhaustive_paths_never_invert(monkeypatch):
    def no_inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called on an exhaustive path")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    covs = toy_covset(11, n=7, d=2)
    assert len(scan(covs, 1, 7, TopK("o", "max", 3), batch_size=16, workers=2)[0]) == 3
    assert len(extract_features(covs, batch_size=16)) == 2
    res = greedy(covs, ObjectiveSpec("o", "max"), start_order=3, target_order=3, kappa=4)
    assert res.best.order == 3


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
    covs = toy_covset(7, n=6, d=3)
    base = extract_features(covs)
    # workers never change batch composition, so equality is exact
    for workers in (2, 4):
        assert extract_features(covs, workers=workers) == base
    # batch size regroups the running sums; extremes and counts are
    # exact, means only to accumulation order
    for batch_size in (3, 50):
        other = extract_features(covs, batch_size=batch_size)
        for got, want in zip(other, base):
            for name in FEATURE_NAMES:
                if name.endswith(("_mean", "_std")):
                    assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
                else:
                    assert getattr(got, name) == getattr(want, name), name


def test_feature_size_limits():
    with pytest.raises(ExhaustiveLimitExceeded):
        extract_features(CovSet([CovarianceMatrix(np.eye(21))]))
    with pytest.raises(InvalidOrderRange):
        extract_features(CovSet([CovarianceMatrix(np.eye(2))]))
    # the refusal threshold is adjustable
    with pytest.raises(ExhaustiveLimitExceeded):
        extract_features(CovSet([CovarianceMatrix(np.eye(8))]), limit=7)
