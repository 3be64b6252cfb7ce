"""Greedy growth and simulated annealing over n-plet space.

Both optimizers maximize an internal energy; minimization requests are
negated on the way in, so "best" always means highest energy. Objectives
aggregate a single measure across datasets: plain mean, paired effect
size between two dataset groups, or a custom callable.

Every greedy step and annealing move adds or removes one variable of a
set whose inverse and log-determinant are known, and is scored by
bordering, not factored afresh: greedy's by nplet_engine.LogdetLattice
(extend), annealing's on the chains in nplet_engine._BorderedSets. This
module keeps the search policy: beam selection, the candidate
extensions, random draws, Metropolis acceptance and cooling.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .copula_core import CovSet
from .errors import DegenerateEffectSize, InvalidData, InvalidOrderRange
# bench/tracer.py wraps optimizers.compute_hoi_batch and .enumerate_order: both stay importable
from .measures import HoiBatch, compute_hoi_batch, hoi_from_sums, hoi_from_terms  # noqa: F401
from .nplet_engine import (LogdetLattice, NpletBatch, _BorderedSets,  # noqa: F401
                           count_nplets, enumerate_order)
from .scanner import MEASURES, Reducer, best_rows, scan


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to optimize: one measure, a direction, and an aggregator.

    aggregator is "mean", "effect" (paired effect size, requiring the
    two equal-length disjoint dataset index groups cond_a and cond_b),
    or a callable mapping the (B, D) value matrix to B aggregates.
    """

    measure: str = "o"
    direction: str = "max"
    aggregator: object = "mean"
    cond_a: tuple | None = None
    cond_b: tuple | None = None

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise InvalidData(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if self.direction not in ("max", "min"):
            raise InvalidData(f"direction must be 'max' or 'min', got {self.direction!r}")
        if callable(self.aggregator):
            return
        if self.aggregator not in ("mean", "effect"):
            raise InvalidData(
                f"aggregator must be 'mean', 'effect' or a callable, got {self.aggregator!r}"
            )
        if self.aggregator == "effect":
            a, b = self.cond_a, self.cond_b
            if a is None or b is None:
                raise InvalidData("effect aggregator needs cond_a and cond_b")
            a = tuple(int(i) for i in a)
            b = tuple(int(i) for i in b)
            if len(a) != len(b):
                raise InvalidData("cond_a and cond_b must have equal length")
            if len(a) < 2:
                raise InvalidData("paired effect size needs at least 2 pairs")
            if set(a) & set(b):
                raise InvalidData("cond_a and cond_b must be disjoint")
            if len(set(a)) != len(a) or len(set(b)) != len(b):
                raise InvalidData("condition groups must not repeat datasets")
            object.__setattr__(self, "cond_a", a)
            object.__setattr__(self, "cond_b", b)

    def value_of(self, energy):
        """Convert engine energy back to the objective's natural sign."""
        return -energy if self.direction == "min" else energy


def evaluate_objective(hoi: HoiBatch, spec: ObjectiveSpec) -> np.ndarray:
    """Per-row energies under the maximize convention.

    The mean aggregator averages across datasets; the effect aggregator
    is the paired Cohen's d, mean(vA - vB) / std(vA - vB) with the
    sample (ddof 1) standard deviation. direction='min' negates.
    """
    vals = getattr(hoi, spec.measure)
    d_count = vals.shape[1]
    if callable(spec.aggregator):
        agg = np.asarray(spec.aggregator(vals), dtype=np.float64)
        if agg.shape != (vals.shape[0],):
            raise InvalidData(
                f"callable aggregator must return shape ({vals.shape[0]},), got {agg.shape}"
            )
    elif spec.aggregator == "mean":
        agg = vals.mean(axis=1)
    else:
        for i in spec.cond_a + spec.cond_b:
            if not 0 <= i < d_count:
                raise InvalidData(f"condition index {i} out of range for D={d_count}")
        diff = vals[:, list(spec.cond_a)] - vals[:, list(spec.cond_b)]
        sd = diff.std(axis=1, ddof=1)
        if not np.isfinite(sd).all() or (sd == 0.0).any():
            raise DegenerateEffectSize(
                "zero variance across condition pairs; effect size undefined"
            )
        agg = diff.mean(axis=1) / sd
    return -agg if spec.direction == "min" else agg


@dataclass(frozen=True)
class OrderBest:
    """Best solution found at one order."""

    order: int
    indices: tuple
    energy: float
    value: float


@dataclass(frozen=True)
class GreedyResult:
    """Best solution and energy at every order from start to target."""

    per_order: tuple

    @property
    def best(self) -> OrderBest:
        """Highest-energy entry across all orders (earliest order wins ties)."""
        return max(self.per_order, key=lambda e: (e.energy, -e.order))


class _Beam(Reducer):
    """The kappa best (energy, indices) pairs fed to it under an objective,
    best first, ties to the smallest index tuple."""

    def __init__(self, spec: ObjectiveSpec, kappa: int):
        self.spec = spec
        self.kappa = kappa
        self.top = []

    def update(self, batch, hoi):
        e = evaluate_objective(hoi, self.spec)
        self.top.extend((float(e[i]), batch.row_indices(i))
                        for i in best_rows(e, self.kappa, "max"))
        self.top.sort(key=lambda p: (-p[0], p[1]))
        del self.top[self.kappa:]

    def finalize(self):
        return self.top


def _extensions(parents: np.ndarray, n: int):
    """Every distinct one-variable extension of the (B, k) parent rows, as
    sorted rows in lexicographic order, with the parent each one extends
    and the variable it adds. Parents come in increasing tuple order, and
    an extension reachable from several parents is assigned the first."""
    b, k = parents.shape
    parent = np.repeat(np.arange(b), n)
    var = np.tile(np.arange(n), b)
    keep = (parents[parent] != var[:, None]).all(axis=1)
    parent, var = parent[keep], var[keep]
    rows = np.sort(np.column_stack([parents[parent], var]), axis=1)
    # np.unique(rows, axis=0, return_index=True), without its structured sort:
    # a stable lexicographic sort keeps the first of equal rows in front
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)])
    order = order[first]
    return rows[first], parent[order], var[order]


def greedy(covs: CovSet, spec: ObjectiveSpec, start_order: int,
           target_order: int, kappa: int = 10, seed: int = 0, *,
           bias_correct: bool = False, batch_size: int = 10000,
           restarts: int = 1, progress=None) -> GreedyResult:
    """Beam search growing n-plets one variable at a time.

    The beam is seeded with the kappa best n-plets from an exhaustive
    scan of start_order (scanner.scan, on the log-determinant lattice;
    at large N the order walks, keeping no table). Each step scores every
    one-variable extension of every member in batch_size chunks, bordered
    from the smallest member tuple it extends (LogdetLattice.extend, the
    walk's leaf step, so its value does not depend on which other members
    reach it), and keeps the kappa best distinct candidates (ties to the
    lexicographically smallest). With bias_correct, target_order must be
    below the sample count (InsufficientSamples before the seed scan).

    restarts > 1 adds extra beams seeded with random start_order n-plets
    (drawn from seed, walked on the same lattice); the first beam is always
    the deterministic top-kappa one, so restarts=1 needs no randomness.
    All beams grow in lockstep: at each order every beam takes one step,
    and the order's result is the best member across beams. progress, if
    given, is called once per order, after every beam has reached it,
    with evaluation counters.
    """
    n = covs.n_variables
    if not 1 <= start_order <= target_order <= n:
        raise InvalidOrderRange(
            f"need 1 <= start_order <= target_order <= N, "
            f"got start={start_order}, target={target_order}, N={n}"
        )
    if kappa < 1:
        raise InvalidData(f"kappa must be >= 1, got {kappa}")
    if restarts < 1:
        raise InvalidData(f"restarts must be >= 1, got {restarts}")
    pool_size = count_nplets(n, start_order, start_order)
    if kappa > pool_size:
        warnings.warn(
            f"kappa={kappa} exceeds the {pool_size} n-plets of order "
            f"{start_order}; clipping", stacklevel=2)
        kappa = pool_size

    t0 = time.perf_counter()
    lattice = LogdetLattice(covs, start_order, target_order, bias_correct)  # opens no order
    seed_scan = {}
    beams = [scan(covs, start_order, start_order, _Beam(spec, kappa),
                  batch_size=batch_size, bias_correct=bias_correct,
                  progress=seed_scan.update)]
    evaluated = seed_scan["nplets"]
    batches = seed_scan["batches"]

    def best_of(rows: np.ndarray, score):
        """The kappa best sorted rows, each chunk's lattice sums score(batch, chunk)."""
        nonlocal evaluated, batches
        beam = _Beam(spec, kappa)
        for at in range(0, len(rows), batch_size):
            chunk = slice(at, at + batch_size)
            batch = NpletBatch._trusted(n, rows[chunk])
            beam.update(batch, hoi_from_sums(*score(batch, chunk)[0], batch.orders()))
            evaluated += batch.batch_size
            batches += 1
        return beam.finalize()

    rng = np.random.default_rng(seed)
    for _ in range(restarts - 1):
        starts = set()
        attempts = 0
        while len(starts) < kappa and attempts < 1000 * kappa:
            starts.add(tuple(np.sort(rng.choice(n, start_order, replace=False)).tolist()))
            attempts += 1
        beams.append(best_of(np.array(sorted(starts), dtype=np.int64),
                             lambda batch, _: lattice.sums(batch)))

    def grow(beam):
        """The kappa best one-variable extensions of a beam's members, each
        bordered from one parent, whichever other members reach it."""
        parents = np.array(sorted(idx for _, idx in beam), dtype=np.int64)
        rows, parent, add = _extensions(parents, n)
        return best_of(rows, lambda batch, chunk: lattice.extend(
            parents, parent[chunk], add[chunk], batch.indices))

    per_order = []
    for order in range(start_order, target_order + 1):
        if order > start_order:
            beams = [grow(beam) for beam in beams]
        e, idx = min((p for beam in beams for p in beam), key=lambda p: (-p[0], p[1]))
        per_order.append(OrderBest(order=order, indices=idx, energy=e,
                                   value=float(spec.value_of(e))))
        if progress is not None:
            progress({"order": order, "batches": batches, "nplets": evaluated,
                      "elapsed": time.perf_counter() - t0})
    return GreedyResult(per_order=tuple(per_order))


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule and move mode for simulated annealing.

    temp0 None means auto: the standard deviation of the initial chain
    energies (floored at 1e-6). Cooling is geometric with rate alpha.
    mode "within-order" swaps one member for one outside variable and
    keeps each chain at its initial order; "across-orders" adds or
    removes one variable with equal probability, rejecting moves that
    would leave [min_order, max_order]. patience 0 disables early
    stopping, otherwise the run stops after that many iterations without
    a best-solution improvement.
    """

    temp0: float | None = None
    alpha: float = 0.99
    max_iters: int = 500
    patience: int = 0
    mode: str = "across-orders"
    min_order: int = 3
    max_order: int | None = None

    def __post_init__(self):
        if self.temp0 is not None and not self.temp0 > 0:
            raise InvalidData(f"temp0 must be positive, got {self.temp0}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidData(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_iters < 0:
            raise InvalidData(f"max_iters must be >= 0, got {self.max_iters}")
        if self.patience < 0:
            raise InvalidData(f"patience must be >= 0, got {self.patience}")
        if self.mode not in ("within-order", "across-orders"):
            raise InvalidData(
                f"mode must be 'within-order' or 'across-orders', got {self.mode!r}"
            )


@dataclass
class OptimState:
    """Final annealing population plus the best solution ever seen."""

    masks: np.ndarray
    energies: np.ndarray
    best_mask: np.ndarray
    best_energy: float
    temperature: float
    rng_seed: int
    iterations: int

    @property
    def best_indices(self) -> tuple:
        return tuple(int(v) for v in np.flatnonzero(self.best_mask))


def anneal(covs: CovSet, spec: ObjectiveSpec, schedule: AnnealSchedule,
           kappa: int = 20, seed: int = 0, *,
           bias_correct: bool = False, progress=None) -> OptimState:
    """Simulated annealing with kappa parallel chains.

    Every iteration proposes one move per chain: within-order swaps one
    member for an outside variable, across-orders adds or removes one.
    The chains' sets live in one nplet_engine._BorderedSets, which scores
    every chain's proposal by bordering from its current set, or on the
    direct path under its trust rule, as compute_hoi_batch would. Improving moves are always
    accepted; a worsening move is accepted with probability
    exp(-|dE| / Temp). Each chain draws from its own generator split off
    the master seed, so runs are reproducible and chain trajectories do
    not depend on kappa ordering. progress, if given, is called every 25
    iterations and at the end.
    """
    n = covs.n_variables
    if kappa < 1:
        raise InvalidData(f"kappa must be >= 1, got {kappa}")
    min_o = schedule.min_order
    max_o = schedule.max_order if schedule.max_order is not None else n
    if not 1 <= min_o <= max_o <= n:
        raise InvalidOrderRange(
            f"need 1 <= min_order <= max_order <= N, got min={min_o}, "
            f"max={max_o}, N={n}"
        )
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(kappa)]

    masks = np.zeros((kappa, n), dtype=bool)
    for c, rng in enumerate(rngs):
        k = int(rng.integers(min_o, max_o + 1))
        masks[c, rng.choice(n, size=k, replace=False)] = True

    sets = _BorderedSets(covs, np.broadcast_to(np.arange(n), masks.shape), masks,
                         width=max_o, bias_correct=bias_correct)

    def score(proposal):
        return evaluate_objective(hoi_from_terms(sets.terms(proposal)), spec)

    none = np.full(kappa, -1)
    energies = score(sets.propose(none, none))
    temp = schedule.temp0 if schedule.temp0 is not None else max(float(np.std(energies)), 1e-6)

    best_c = int(np.argmax(energies))
    best_mask = masks[best_c].copy()
    best_energy = float(energies[best_c])

    t0 = time.perf_counter()

    def report():
        if progress is not None:
            progress({
                "iterations": iterations,
                "nplets": kappa * (iterations + 1),
                "temperature": float(temp),
                "best": best_energy,
                "elapsed": time.perf_counter() - t0,
            })

    within = schedule.mode == "within-order"
    stale = 0
    iterations = 0
    for _ in range(schedule.max_iters):
        drop, add = np.full(kappa, -1), np.full(kappa, -1)
        accept_draws = np.empty(kappa)
        for c, rng in enumerate(rngs):
            inside = masks[c].nonzero()[0]
            outside = (~masks[c]).nonzero()[0]
            # a[rng.integers(0, a.size)] is the draw rng.choice(a) makes,
            # without its overhead
            if within:
                if inside.size and outside.size:
                    drop[c] = inside[rng.integers(0, inside.size)]
                    add[c] = outside[rng.integers(0, outside.size)]
            else:
                if rng.random() < 0.5:
                    if inside.size < max_o and outside.size:
                        add[c] = outside[rng.integers(0, outside.size)]
                elif inside.size > min_o:
                    drop[c] = inside[rng.integers(0, inside.size)]
                # bound-violating moves fall through as no-op proposals
            accept_draws[c] = rng.random()

        moving = (drop >= 0) | (add >= 0)
        proposal = sets.propose(drop, add)
        prop_energies = np.where(moving, score(proposal), energies)
        delta = prop_energies - energies
        accept = (delta > 0) | (accept_draws < np.exp(-np.abs(delta) / temp))
        moved = accept & moving
        masks[moved & (drop >= 0), drop[moved & (drop >= 0)]] = False
        masks[moved & (add >= 0), add[moved & (add >= 0)]] = True
        energies[accept] = prop_energies[accept]
        sets.accept(proposal, moved)

        c_best = int(np.argmax(energies))
        if float(energies[c_best]) > best_energy:
            best_energy = float(energies[c_best])
            best_mask = masks[c_best].copy()
            stale = 0
        else:
            stale += 1
        temp *= schedule.alpha
        iterations += 1
        if iterations % 25 == 0:
            report()
        if schedule.patience and stale >= schedule.patience:
            break

    if iterations % 25 != 0 or iterations == 0:
        report()
    return OptimState(
        masks=masks,
        energies=energies,
        best_mask=best_mask,
        best_energy=best_energy,
        temperature=float(temp),
        rng_seed=int(seed),
        iterations=iterations,
    )
