import itertools

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
    TopK,
    block_concat,
    count_nplets,
    extract_features,
    r_system_cov,
    s_system_cov,
    scan,
)
from hoi import scanner
from hoi.scanner import best_rows


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
