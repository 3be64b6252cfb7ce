import ast
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from hoi import (
    AnnealSchedule,
    CovarianceMatrix,
    CovSet,
    DegenerateEffectSize,
    GreedyResult,
    HoiBatch,
    InvalidData,
    InvalidOrderRange,
    NotPositiveDefinite,
    NpletBatch,
    ObjectiveSpec,
    anneal,
    block_concat,
    compute_hoi_batch,
    copula_transform,
    estimate_covariance,
    evaluate_objective,
    greedy,
    r_system_cov,
    s_system_cov,
    sample_gaussian,
)
from hoi import optimizers

HALF_LOG_TWO = 0.5 * math.log(2.0)


def planted_covset():
    cc = block_concat([
        r_system_cov(3, 1.0), s_system_cov(3, 1.0), CovarianceMatrix(np.eye(4)),
    ])
    return CovSet([cc])


def toy_hoi(values):
    values = np.asarray(values, dtype=np.float64)
    b, _ = values.shape
    return HoiBatch(tc=values + 1.0, dtc=values + 2.0, o=values,
                    s=values + 3.0, order=np.full(b, 3, dtype=np.int64))


def test_objective_spec_validation():
    with pytest.raises(InvalidData):
        ObjectiveSpec(measure="entropy")
    with pytest.raises(InvalidData):
        ObjectiveSpec(direction="up")
    with pytest.raises(InvalidData):
        ObjectiveSpec(aggregator="median")
    with pytest.raises(InvalidData):
        ObjectiveSpec(aggregator="effect")
    with pytest.raises(InvalidData):
        ObjectiveSpec(aggregator="effect", cond_a=(0, 1), cond_b=(2,))
    with pytest.raises(InvalidData):
        ObjectiveSpec(aggregator="effect", cond_a=(0,), cond_b=(1,))
    with pytest.raises(InvalidData):
        ObjectiveSpec(aggregator="effect", cond_a=(0, 1), cond_b=(1, 2))
    with pytest.raises(InvalidData):
        ObjectiveSpec(aggregator="effect", cond_a=(0, 0), cond_b=(1, 2))
    spec = ObjectiveSpec(aggregator="effect", cond_a=[0, 1], cond_b=[2, 3])
    assert spec.cond_a == (0, 1)


def test_value_of_round_trips_direction():
    assert ObjectiveSpec(direction="max").value_of(0.7) == 0.7
    assert ObjectiveSpec(direction="min").value_of(0.7) == -0.7


def test_evaluate_objective_mean_and_direction():
    vals = np.array([[1.0, 3.0], [2.0, -4.0], [0.0, 0.5]])
    hoi = toy_hoi(vals)
    up = evaluate_objective(hoi, ObjectiveSpec(measure="o", direction="max"))
    np.testing.assert_array_equal(up, vals.mean(axis=1))
    down = evaluate_objective(hoi, ObjectiveSpec(measure="o", direction="min"))
    np.testing.assert_array_equal(down, -up)
    # measure selection picks the right array
    tc = evaluate_objective(hoi, ObjectiveSpec(measure="tc"))
    np.testing.assert_array_equal(tc, (vals + 1.0).mean(axis=1))


def test_evaluate_objective_effect_matches_reference():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((5, 6))
    spec = ObjectiveSpec(aggregator="effect", cond_a=(0, 1, 2), cond_b=(3, 4, 5))
    got = evaluate_objective(toy_hoi(vals), spec)
    for i in range(5):
        want = ref.effect_size(vals[i, :3], vals[i, 3:])
        assert got[i] == pytest.approx(want, abs=1e-13)


def test_evaluate_objective_effect_degenerate_and_range():
    vals = np.ones((2, 4))  # zero variance of the pairwise differences
    spec = ObjectiveSpec(aggregator="effect", cond_a=(0, 1), cond_b=(2, 3))
    with pytest.raises(DegenerateEffectSize):
        evaluate_objective(toy_hoi(vals), spec)
    narrow = toy_hoi(np.ones((2, 3)))
    with pytest.raises(InvalidData):
        evaluate_objective(narrow, spec)  # index 3 out of range


def test_evaluate_objective_callable_aggregator():
    vals = np.array([[1.0, 5.0], [2.0, 0.0]])
    spec = ObjectiveSpec(aggregator=lambda v: v[:, 0])
    np.testing.assert_array_equal(evaluate_objective(toy_hoi(vals), spec), [1.0, 2.0])
    bad = ObjectiveSpec(aggregator=lambda v: v)
    with pytest.raises(InvalidData):
        evaluate_objective(toy_hoi(vals), bad)


def test_extensions_are_the_unique_sorted_rows_with_their_first_parent():
    rng = np.random.default_rng(5)
    for n, k, b in ((6, 2, 8), (9, 3, 20), (12, 4, 30), (40, 3, 10)):
        for _ in range(20):
            # parents drawn from a few variables share members, so many
            # extensions are reached more than once
            pool = rng.choice(n, min(n, k + 2), replace=False)
            parents = np.unique(np.sort([rng.choice(pool, k, replace=False) for _ in range(b)],
                                        axis=1), axis=0)
            rows, parent, add = optimizers._extensions(parents, n)
            reached = [(tuple(sorted(p + [v])), i, v) for i, p in enumerate(parents.tolist())
                       for v in range(n) if v not in p]
            want, first = np.unique(np.array([r for r, _, _ in reached]), axis=0,
                                    return_index=True)
            assert len(want) < len(reached)
            np.testing.assert_array_equal(rows, want)
            assert parent.tolist() == [reached[f][1] for f in first]
            assert add.tolist() == [reached[f][2] for f in first]


def test_greedy_recovers_planted_blocks_at_order_four():
    covs = planted_covset()
    up = greedy(covs, ObjectiveSpec(measure="o", direction="max"), 3, 4, kappa=10)
    by_order = {e.order: e for e in up.per_order}
    assert by_order[4].indices == (0, 1, 2, 3)
    assert by_order[4].value == pytest.approx(HALF_LOG_TWO, abs=1e-12)
    down = greedy(covs, ObjectiveSpec(measure="o", direction="min"), 3, 4, kappa=10)
    by_order = {e.order: e for e in down.per_order}
    assert by_order[4].indices == (4, 5, 6, 7)
    assert by_order[4].value == pytest.approx(-HALF_LOG_TWO, abs=1e-12)
    assert by_order[4].energy == pytest.approx(HALF_LOG_TWO, abs=1e-12)


def test_greedy_with_full_beam_equals_brute_force():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((14, 7))
    sigma = a.T @ a / 14 + 0.3 * np.eye(7)
    covs = CovSet([CovarianceMatrix(sigma)])
    res = greedy(covs, ObjectiveSpec(measure="o", direction="max"), 3, 4, kappa=35)
    want_val, want_idx = ref.brute_force_best(sigma, 4, 4, largest=True)
    by_order = {e.order: e for e in res.per_order}
    assert by_order[4].indices == want_idx
    assert by_order[4].value == pytest.approx(want_val, abs=1e-12)


def test_greedy_is_deterministic_and_restarts_never_hurt():
    covs = planted_covset()
    spec = ObjectiveSpec(measure="o", direction="max")
    one = greedy(covs, spec, 3, 6, kappa=4, seed=7, restarts=3)
    two = greedy(covs, spec, 3, 6, kappa=4, seed=7, restarts=3)
    assert one == two
    assert isinstance(one, GreedyResult)
    plain = greedy(covs, spec, 3, 6, kappa=4, seed=7)
    for with_r, without in zip(one.per_order, plain.per_order):
        assert with_r.energy >= without.energy - 1e-15


def test_greedy_validation_and_kappa_clip():
    covs = planted_covset()
    spec = ObjectiveSpec()
    with pytest.raises(InvalidOrderRange):
        greedy(covs, spec, 5, 3)
    with pytest.raises(InvalidOrderRange):
        greedy(covs, spec, 3, 13)
    with pytest.raises(InvalidData):
        greedy(covs, spec, 3, 4, kappa=0)
    with pytest.raises(InvalidData):
        greedy(covs, spec, 3, 4, restarts=0)
    with pytest.warns(UserWarning, match="clipping"):
        res = greedy(covs, spec, 2, 3, kappa=100)  # C(12, 2) = 66 < 100
    assert len(res.per_order) == 2


def test_greedy_progress_counts_evaluations():
    covs = planted_covset()
    ticks = []
    greedy(covs, ObjectiveSpec(), 3, 5, kappa=3, progress=ticks.append)
    assert [t["order"] for t in ticks] == [3, 4, 5]
    assert ticks[0]["nplets"] == 220  # exhaustive C(12, 3) seed scan
    assert ticks[-1]["nplets"] > ticks[0]["nplets"]
    # with restarts every beam grows in lockstep: one report per order
    ticks = []
    greedy(covs, ObjectiveSpec(), 3, 6, kappa=3, seed=2, restarts=3, progress=ticks.append)
    assert [t["order"] for t in ticks] == [3, 4, 5, 6]
    counts = [t["nplets"] for t in ticks]
    assert counts[0] > 220  # the restart beams are evaluated at the start order
    assert counts == sorted(counts)


@pytest.mark.parametrize("restarts", [1, 3])
def test_greedy_does_not_depend_on_batch_size(restarts):
    covs = planted_covset()
    spec = ObjectiveSpec(measure="o", direction="max")
    results = [greedy(covs, spec, 3, 7, kappa=5, seed=4, batch_size=b, restarts=restarts)
               for b in (1, 7, 10000)]
    assert results[0] == results[1] == results[2]


def test_anneal_is_deterministic_per_seed():
    covs = planted_covset()
    sched = AnnealSchedule(max_iters=120)
    a = anneal(covs, ObjectiveSpec(), sched, kappa=8, seed=3)
    b = anneal(covs, ObjectiveSpec(), sched, kappa=8, seed=3)
    assert a.best_energy == b.best_energy
    np.testing.assert_array_equal(a.masks, b.masks)
    np.testing.assert_array_equal(a.energies, b.energies)
    c = anneal(covs, ObjectiveSpec(), sched, kappa=8, seed=4)
    assert not np.array_equal(a.masks, c.masks)


def test_anneal_finds_planted_maximum():
    covs = planted_covset()
    sched = AnnealSchedule(max_iters=500, min_order=3)
    st = anneal(covs, ObjectiveSpec(measure="o", direction="max"), sched, kappa=20, seed=0)
    assert st.best_energy == pytest.approx(HALF_LOG_TWO, abs=1e-9)
    assert st.iterations == 500


def test_anneal_within_order_keeps_chain_sizes():
    covs = planted_covset()
    sched = AnnealSchedule(max_iters=60, mode="within-order", min_order=4, max_order=4)
    st = anneal(covs, ObjectiveSpec(), sched, kappa=6, seed=1)
    assert st.masks.sum(axis=1).tolist() == [4] * 6
    assert len(st.best_indices) == 4


def test_anneal_across_orders_respects_bounds():
    covs = planted_covset()
    sched = AnnealSchedule(max_iters=200, mode="across-orders", min_order=3, max_order=5)
    st = anneal(covs, ObjectiveSpec(), sched, kappa=10, seed=2)
    sizes = st.masks.sum(axis=1)
    assert sizes.min() >= 3 and sizes.max() <= 5
    assert 3 <= len(st.best_indices) <= 5
    assert st.best_energy >= st.energies.max()


def test_anneal_zero_iterations_returns_initial_population():
    covs = planted_covset()
    st = anneal(covs, ObjectiveSpec(), AnnealSchedule(max_iters=0), kappa=5, seed=0)
    assert st.iterations == 0
    assert st.best_energy == st.energies.max()


def test_anneal_patience_stops_on_flat_landscape():
    covs = CovSet([CovarianceMatrix(np.eye(8))])
    sched = AnnealSchedule(max_iters=400, patience=10)
    st = anneal(covs, ObjectiveSpec(), sched, kappa=4, seed=0)
    assert st.iterations < 400


def test_anneal_explicit_temperature_cools_geometrically():
    covs = planted_covset()
    sched = AnnealSchedule(temp0=2.0, alpha=0.5, max_iters=10)
    st = anneal(covs, ObjectiveSpec(), sched, kappa=4, seed=0)
    assert st.temperature == pytest.approx(2.0 * 0.5**10, rel=1e-12)


def test_anneal_schedule_validation():
    for kwargs in [
        {"temp0": 0.0},
        {"temp0": -1.0},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"max_iters": -1},
        {"patience": -2},
        {"mode": "sideways"},
    ]:
        with pytest.raises(InvalidData):
            AnnealSchedule(**kwargs)
    covs = planted_covset()
    with pytest.raises(InvalidOrderRange):
        anneal(covs, ObjectiveSpec(), AnnealSchedule(min_order=6, max_order=3))
    with pytest.raises(InvalidData):
        anneal(covs, ObjectiveSpec(), AnnealSchedule(), kappa=0)


def sampled_covset(n_blocks, d, seed, couplings=(0.9,)):
    """d sampled copula covariances of planted R(3) and S(3) blocks plus
    noise, dataset i with block coupling couplings[i % len(couplings)]."""
    covs = []
    for i in range(d):
        c = couplings[i % len(couplings)]
        cov = block_concat([r_system_cov(3, c), s_system_cov(3, 1.2 * c)] * n_blocks
                           + [CovarianceMatrix(np.eye(4))])
        covs.append(estimate_covariance(copula_transform(sample_gaussian(cov, 400, seed=seed + i))))
    return CovSet(covs)


def beam_search(covs, spec, start, target, kappa, bias_correct):
    """Greedy growth scored by compute_hoi_batch on every extension."""
    n = covs.n_variables
    rows = np.array(list(ref.all_subsets(n, start, start)))
    found = []
    for order in range(start, target + 1):
        if order > start:
            ext = {tuple(sorted(idx + (v,))) for idx in beam for v in range(n) if v not in idx}
            rows = np.array(sorted(ext))
        e = evaluate_objective(compute_hoi_batch(covs, NpletBatch(n, indices=rows),
                                                 bias_correct=bias_correct), spec)
        order_idx = sorted(range(len(rows)), key=lambda i: (-e[i], tuple(rows[i])))[:kappa]
        beam = [tuple(int(v) for v in rows[i]) for i in order_idx]
        found.append((beam[0], e[order_idx[0]]))
    return found


@pytest.mark.parametrize("direction", ["max", "min"])
def test_bordered_greedy_matches_a_beam_search_on_the_direct_path(direction):
    # N = 30: the start order's seed scan is bordered as well as every step
    covs = sampled_covset(3, 2, seed=3)
    assert covs.n_variables == 28
    spec = ObjectiveSpec(measure="o", direction=direction)
    res = greedy(covs, spec, 3, 7, kappa=6, bias_correct=True)
    want = beam_search(covs, spec, 3, 7, 6, True)
    assert [e.indices for e in res.per_order] == [idx for idx, _ in want]
    np.testing.assert_allclose([e.energy for e in res.per_order], [e for _, e in want],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["within-order", "across-orders"])
@pytest.mark.parametrize("aggregator", ["mean", "effect"])
def test_anneal_energies_do_not_drift_from_the_direct_path(mode, aggregator):
    covs = sampled_covset(1, 4, seed=11, couplings=(0.9, 0.5, 1.4, 0.3))
    n = covs.n_variables
    spec = ObjectiveSpec(measure="o", direction="max", aggregator=aggregator,
                         cond_a=(0, 1), cond_b=(2, 3))
    sched = AnnealSchedule(mode=mode, max_iters=500, min_order=3, max_order=9)
    st = anneal(covs, spec, sched, kappa=12, seed=5, bias_correct=True)
    assert st.iterations == 500
    direct = compute_hoi_batch(covs, NpletBatch(n, masks=st.masks, check_unique=False),
                               bias_correct=True)
    want = evaluate_objective(direct, spec)
    if aggregator == "mean":
        np.testing.assert_allclose(st.energies, want, rtol=0, atol=1e-10)
    else:
        # d = mean / sd of the two paired differences moves by up to
        # eps * (1 + 2 |d|) / sd when the measures move by eps, and annealing
        # drives sd to ~1e-5: bound the measures' drift by eps = 1e-13
        diff = direct.o[:, [0, 1]] - direct.o[:, [2, 3]]
        bound = 1e-13 * (1.0 + 2.0 * np.abs(want)) / diff.std(axis=1, ddof=1)
        assert (np.abs(st.energies - want) <= bound).all()


def test_anneal_on_singular_input_takes_the_direct_path():
    # x_11 = x_0 + x_4 exactly: every set holding 0, 4 and 11 is singular,
    # and its proposals are scored on compute_hoi_batch's direct path, whose
    # Cholesky takes the jitter retry where it fails
    covs = sampled_covset(1, 1, seed=2)
    sigma = covs.covs[0].sigma.copy()
    t = np.eye(12)
    t[11] = 0.0
    t[11, [0, 4]] = 1.0
    covs = CovSet([CovarianceMatrix(t @ sigma @ t.T)])
    spec = ObjectiveSpec(measure="tc", direction="max")
    st = anneal(covs, spec, AnnealSchedule(max_iters=300, min_order=3, max_order=8),
                kappa=8, seed=0)
    assert np.isfinite(st.energies).all()
    direct = compute_hoi_batch(covs, NpletBatch(12, masks=st.masks, check_unique=False))
    np.testing.assert_allclose(st.energies, evaluate_objective(direct, spec), rtol=1e-9)
    assert any({0, 4, 11} <= set(np.flatnonzero(m)) for m in st.masks)


def test_greedy_on_singular_input_takes_the_direct_path():
    # the anneal test's x_11 = x_0 + x_4: extensions to a set holding 0, 4
    # and 11 fail the trust rule and are scored on the direct path
    covs = sampled_covset(1, 1, seed=2)
    sigma = covs.covs[0].sigma.copy()
    t = np.eye(12)
    t[11] = 0.0
    t[11, [0, 4]] = 1.0
    covs = CovSet([CovarianceMatrix(t @ sigma @ t.T)])
    held = False
    for measure in ("tc", "o", "dtc"):
        for direction in ("max", "min"):
            spec = ObjectiveSpec(measure=measure, direction=direction)
            res = greedy(covs, spec, 3, 12, kappa=5)
            for e in res.per_order:
                want = evaluate_objective(
                    compute_hoi_batch(covs, NpletBatch(12, indices=[e.indices])), spec)
                np.testing.assert_allclose(e.energy, want[0], rtol=0, atol=1e-12)
                held |= e.order < 12 and {0, 4, 11} <= set(e.indices)
    assert held


def test_searches_on_well_conditioned_input_never_factor(monkeypatch):
    # greedy scores seeds, restart seeds and growth on the lattice, and
    # every set anneal stores, refreshed ones included, is bordered up from
    # the empty set; only the direct path factors, and no row takes it here
    covs = sampled_covset(1, 2, seed=7)
    n = covs.n_variables
    spec = ObjectiveSpec(measure="o", direction="max")
    refreshed = []
    refresh = optimizers._BorderedSets.refresh

    def counted(self, rows, members, live):
        refreshed.append(len(rows))
        refresh(self, rows, members, live)

    def no_cholesky(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(optimizers._BorderedSets, "refresh", counted)
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    res = greedy(covs, spec, 3, 8, kappa=4, restarts=1)
    restarted = greedy(covs, spec, 3, 8, kappa=4, seed=3, restarts=3)
    assert not refreshed  # greedy stores no set state
    st = anneal(covs, spec, AnnealSchedule(max_iters=200, min_order=3, max_order=9),
                kappa=6, seed=1)
    monkeypatch.undo()
    assert len(refreshed) > 1  # anneal's first build, then rebuilds after 50 moves
    for e in res.per_order + restarted.per_order:
        want = evaluate_objective(compute_hoi_batch(covs, NpletBatch(n, indices=[e.indices])),
                                  spec)
        np.testing.assert_allclose(e.energy, want[0], rtol=0, atol=1e-12)
    direct = compute_hoi_batch(covs, NpletBatch(n, masks=st.masks, check_unique=False))
    np.testing.assert_allclose(st.energies, evaluate_objective(direct, spec), rtol=0, atol=1e-10)


def test_optimizers_import_only_public_engine_names_and_the_set_state():
    # search policy lives in optimizers; engine kernels stay behind the set state
    tree = ast.parse(Path(optimizers.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "nplet_engine"
             for alias in node.names]
    assert "_BorderedSets" in names
    assert [n for n in names if n.startswith("_") and n != "_BorderedSets"] == []


def test_anneal_on_indefinite_input_raises_chain_coordinates():
    sigma = np.eye(6)
    sigma[1, 2] = sigma[2, 1] = 2.0  # beyond correlation 1
    covs = CovSet([CovarianceMatrix(sigma)])
    sched = AnnealSchedule(max_iters=50, min_order=2, max_order=6)
    with pytest.raises(NotPositiveDefinite) as err:
        anneal(covs, ObjectiveSpec(), sched, kappa=4, seed=0)
    chains = {c for c, _ in err.value.coords}
    assert chains and all(0 <= c < 4 for c in chains)
