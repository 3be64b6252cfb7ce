"""End-to-end acceptance checks, one test per headline guarantee.

Covers oracle agreement of the batched pipeline, padding neutrality,
estimator convergence, sign recovery on sampled ground-truth systems,
block additivity, heuristic search recovery against exhaustive oracles,
the combinatorial count, desk-scale throughput, CLI byte determinism
and the per-dataset feature suite. The conftest terminal summary prints
one PASS/FAIL line per numbered check.
"""

import math
import resource
import time

import numpy as np
import pytest

import reference as ref
from hoi import (
    AnnealSchedule,
    Callback,
    CovarianceMatrix,
    CovSet,
    DataMatrix,
    FEATURE_NAMES,
    NpletBatch,
    ObjectiveSpec,
    PgmBlock,
    PgmSpec,
    TopK,
    anneal,
    block_concat,
    compute_hoi_batch,
    copula_entropy,
    copula_transform,
    count_nplets,
    estimate_covariance,
    extract_features,
    greedy,
    r_system_cov,
    s_system_cov,
    sample_gaussian,
    scan,
)
from hoi.cli import main

HALF_LOG2 = 0.5 * math.log(2.0)


def _whole_system_o(cov, bias_correct=False):
    n = cov.n_variables
    batch = NpletBatch(n, indices=np.arange(n, dtype=np.int64)[None, :])
    hoi = compute_hoi_batch(CovSet([cov]), batch, bias_correct=bias_correct)
    return float(hoi.o[0, 0])


def test_criterion_01_batched_pipeline_matches_scalar_oracle():
    # dependence-rich 8-variable system, estimated the way users would
    cov = block_concat([r_system_cov(3, 1.0), s_system_cov(3, 1.0)])
    data = sample_gaussian(cov, 500, seed=11)
    est = estimate_covariance(copula_transform(data))
    covs = CovSet([est])

    rows = []

    def keep(batch, hoi):
        for i in range(batch.batch_size):
            rows.append((batch.row_indices(i),
                         (hoi.tc[i, 0], hoi.dtc[i, 0], hoi.o[i, 0], hoi.s[i, 0])))

    t0 = time.perf_counter()
    # small batches and threads so the comparison covers the real pipeline
    scan(covs, 3, 8, Callback(keep), batch_size=64, workers=2)
    elapsed = time.perf_counter() - t0

    assert len(rows) == count_nplets(8, 3, 8) == 219
    got = np.array([vals for _, vals in rows])
    want = np.array([ref.measures(est.sigma, idx) for idx, _ in rows])
    # relative agreement; the tiny atol floor only matters if a measure
    # happens to land within rounding distance of zero
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)
    assert elapsed < 10.0


def _random_mixed_masks(n, count, min_order, seed):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < count:
        k = int(rng.integers(min_order, n + 1))
        idx = rng.choice(n, size=k, replace=False)
        seen.add(tuple(sorted(int(v) for v in idx)))
    masks = np.zeros((count, n), dtype=bool)
    for row, idx in enumerate(sorted(seen)):
        masks[row, list(idx)] = True
    return masks


def test_criterion_02_padded_mixed_orders_match_fixed_order():
    n = 15
    analytic = block_concat([r_system_cov(7, 0.8), s_system_cov(6, 0.9)])
    sampled = estimate_covariance(
        copula_transform(sample_gaussian(analytic, 600, seed=21)))
    masks = _random_mixed_masks(n, 1000, 3, seed=2)
    orders = masks.sum(axis=1)

    # analytic path raw, sampled path bias-corrected: the correction is
    # applied at each row's effective order, so grouping must stay neutral
    for cov, bias in ((analytic, False), (sampled, True)):
        covs = CovSet([cov])
        mixed = compute_hoi_batch(covs, NpletBatch(n, masks=masks),
                                  bias_correct=bias)
        got = np.column_stack(
            [mixed.tc[:, 0], mixed.dtc[:, 0], mixed.o[:, 0], mixed.s[:, 0]])

        fixed = np.empty_like(got)
        for k in np.unique(orders):
            sel = np.flatnonzero(orders == k)
            idx = np.array([np.flatnonzero(masks[r]) for r in sel])
            sub = compute_hoi_batch(covs, NpletBatch(n, indices=idx),
                                    bias_correct=bias)
            fixed[sel] = np.column_stack(
                [sub.tc[:, 0], sub.dtc[:, 0], sub.o[:, 0], sub.s[:, 0]])

        np.testing.assert_allclose(got, fixed, rtol=0, atol=1e-10)


def test_criterion_03_bias_corrected_entropy_converges():
    target = 5 * 1.41894
    estimates = [
        copula_entropy(np.random.default_rng(seed).standard_normal((10000, 5)),
                       bias_correct=True).nats
        for seed in range(100)
    ]
    assert abs(float(np.median(estimates)) - target) < 0.02


def test_criterion_04_sampled_sign_recovery():
    def sampled_o(cov, seed):
        data = sample_gaussian(cov, 5000, seed)
        est = estimate_covariance(copula_transform(data))
        return _whole_system_o(est, bias_correct=True)

    redundant = r_system_cov(4, 1.0)
    synergistic = s_system_cov(4, 1.0)
    r_hits = sum(sampled_o(redundant, seed) > 0 for seed in range(100))
    s_hits = sum(sampled_o(synergistic, seed) < 0 for seed in range(100))
    assert r_hits >= 95
    assert s_hits >= 95


def test_criterion_05_block_diagonal_additivity():
    make = {"r": r_system_cov, "s": s_system_cov}
    pairs = [
        (("r", 2, 1.0), ("s", 2, 1.0)),
        (("r", 3, 0.6), ("s", 4, 1.2)),
        (("r", 5, 1.0), ("r", 2, 0.3)),
        (("s", 3, 0.8), ("s", 2, 1.5)),
    ]
    for (ka, ma, ca), (kb, mb, cb) in pairs:
        cov_a = make[ka](ma, ca)
        cov_b = make[kb](mb, cb)
        union = block_concat([cov_a, cov_b])
        assert _whole_system_o(union) == pytest.approx(
            _whole_system_o(cov_a) + _whole_system_o(cov_b), abs=1e-10)

    # equal and opposite blocks cancel exactly
    balanced = block_concat([r_system_cov(2, 1.0), s_system_cov(2, 1.0)])
    assert abs(_whole_system_o(balanced)) < 1e-10


def test_criterion_06_heuristic_recovery_on_planted_blocks():
    cov = block_concat([r_system_cov(3, 1.0), s_system_cov(3, 1.0),
                        CovarianceMatrix(np.eye(4))])
    covs = CovSet([cov])

    # the exhaustive order-4 oracle lands exactly on the planted blocks
    vmax, imax = ref.brute_force_best(cov.sigma, 4, 4, largest=True)
    vmin, imin = ref.brute_force_best(cov.sigma, 4, 4, largest=False)
    assert imax == (0, 1, 2, 3)
    assert imin == (4, 5, 6, 7)

    for direction, want_idx, want_val in (("max", imax, vmax),
                                          ("min", imin, vmin)):
        spec = ObjectiveSpec(measure="o", direction=direction)
        res = greedy(covs, spec, start_order=3, target_order=4,
                     kappa=10, seed=0)
        at4 = [e for e in res.per_order if e.order == 4]
        assert len(at4) == 1
        assert at4[0].indices == want_idx
        assert at4[0].value == pytest.approx(want_val, abs=1e-10)

    # across every order the global optimum is still the planted value:
    # independent variables joined to a block leave its o unchanged
    gmax, _ = ref.brute_force_best(cov.sigma, 3, 12, largest=True)
    assert gmax == pytest.approx(HALF_LOG2, abs=1e-12)

    spec = ObjectiveSpec(measure="o", direction="max")
    schedule = AnnealSchedule(mode="across-orders", max_iters=500,
                              min_order=3, max_order=12)
    hits = 0
    for seed in range(100):
        state = anneal(covs, spec, schedule, kappa=20, seed=seed)
        hits += abs(state.best_energy - gmax) < 1e-9
    assert hits >= 95


def test_criterion_07_count_matches_binomial_oracle():
    oracle = sum(math.comb(30, k) for k in range(3, 31))
    assert count_nplets(30, 3, 30) == 1_073_741_358
    assert count_nplets(30, 3, 30) == oracle
    assert ref.count_subsets(30, 3, 30) == oracle


def test_criterion_08_desk_scale_throughput():
    rng = np.random.default_rng(8)
    mix = np.eye(20) + 0.15 * rng.standard_normal((20, 20))
    data = DataMatrix(rng.standard_normal((1000, 20)) @ mix.T)
    covs = CovSet([estimate_covariance(copula_transform(data))])

    counters = {}
    t0 = time.perf_counter()
    top = scan(covs, 3, 20, TopK("o", "max", 3), batch_size=10000,
               bias_correct=True, workers=4,
               progress=counters.update)
    elapsed = time.perf_counter() - t0

    assert counters["nplets"] == count_nplets(20, 3, 20) == 1_048_365
    assert len(top) == 1 and len(top[0]) >= 3
    assert elapsed < 300.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 3 * 1024 * 1024


def test_criterion_09_cli_outputs_byte_identical(tmp_path, monkeypatch):
    spec_path = tmp_path / "blocks.json"
    spec_path.write_text(
        PgmSpec(blocks=[PgmBlock("r", 2, 1.0), PgmBlock("s", 2, 1.0)]).to_json())
    data_csv = tmp_path / "mix.csv"
    assert main(["synth", "--spec", str(spec_path), "--samples", "160",
                 "--seed", "5", "--out", str(data_csv)]) == 0

    invocations = {
        "count": ["count", "--n", "12", "--orders", "3:12"],
        "synth": ["synth", "--spec", str(spec_path), "--samples", "40",
                  "--seed", "9"],
        "scan": ["scan", "--input", str(data_csv), "--orders", "3:5",
                 "--reduce", "top:4:max:o", "--bias-correct"],
        "greedy": ["greedy", "--input", str(data_csv), "--measure", "o",
                   "--direction", "max", "--start-order", "3",
                   "--target-order", "4", "--kappa", "5", "--seed", "2"],
        "anneal": ["anneal", "--input", str(data_csv), "--min-order", "3",
                   "--max-order", "5", "--iters", "60", "--kappa", "4",
                   "--seed", "3"],
        "features": ["features", "--input", str(data_csv)],
    }
    for name, argv in invocations.items():
        outputs = []
        for run, workers in enumerate(("1", "1", "4")):
            monkeypatch.setenv("HOI_WORKERS", workers)
            out = tmp_path / f"{name}_{run}.out"
            assert main(argv + ["--out", str(out)]) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name


def test_criterion_10_feature_suite_on_synthetic_corpus():
    specs = [
        PgmSpec(blocks=[PgmBlock("r", 3, 1.0)]),
        PgmSpec(blocks=[PgmBlock("s", 3, 1.0)]),
        PgmSpec(blocks=[PgmBlock("r", 2, 0.7), PgmBlock("s", 2, 1.2)]),
        PgmSpec(blocks=[PgmBlock("r", 4, 0.5), PgmBlock("independent", 3)]),
        PgmSpec(blocks=[PgmBlock("s", 5, 0.9), PgmBlock("independent", 2)]),
        PgmSpec(blocks=[PgmBlock("r", 2, 1.5), PgmBlock("r", 2, 0.4),
                        PgmBlock("independent", 2)]),
        PgmSpec(blocks=[PgmBlock("s", 2, 0.8), PgmBlock("s", 3, 1.1)]),
        PgmSpec(blocks=[PgmBlock("r", 6, 1.0), PgmBlock("independent", 3)]),
        PgmSpec(blocks=[PgmBlock("independent", 5)]),
        PgmSpec(blocks=[PgmBlock("r", 3, 0.9), PgmBlock("s", 4, 0.6)]),
    ]
    assert all(s.n_variables <= 10 for s in specs)

    t0 = time.perf_counter()
    vectors = []
    for i, spec in enumerate(specs):
        data = sample_gaussian(spec.build(), 400, seed=100 + i)
        est = estimate_covariance(copula_transform(data))
        vectors.extend(extract_features(CovSet([est]), bias_correct=True))
    elapsed = time.perf_counter() - t0

    assert elapsed < 60.0
    assert len(vectors) == 10
    assert FEATURE_NAMES == (
        "tc_max", "tc_min", "tc_mean", "tc_whole",
        "dtc_max", "dtc_min", "dtc_mean", "dtc_whole",
        "o_max", "o_min", "o_mean", "o_whole",
        "s_max", "s_min", "s_mean", "s_whole",
        "mi_mean", "mi_std",
        "o_max_order_norm", "o_min_order_norm",
        "prop_synergistic",
    )
    for vec in vectors:
        assert tuple(vec.as_dict()) == FEATURE_NAMES

    # analytic identity covariance: every measure and MI feature is zero,
    # only the two order-attainment ratios are order-valued
    ident = extract_features(CovSet([CovarianceMatrix(np.eye(6))]))[0]
    norm_names = {"o_max_order_norm", "o_min_order_norm"}
    for name, value in ident.as_dict().items():
        if name in norm_names:
            assert 0.0 < value <= 1.0, name
        else:
            assert abs(value) <= 1e-10, name
