"""Greedy growth and simulated annealing over n-plet space.

Both optimizers maximize an internal energy; minimization requests are
negated on the way in, so "best" always means highest energy. Objectives
aggregate a single measure across datasets: plain mean, paired effect
size between two dataset groups, or a custom callable.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .copula_core import CovSet
from .errors import (
    DegenerateEffectSize,
    InvalidData,
    InvalidOrderRange,
)
from .measures import HoiBatch, compute_hoi_batch
from .nplet_engine import NpletBatch, count_nplets, enumerate_order
from .scanner import MEASURES, best_rows


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


def _merge_top(entries, new_pairs, kappa):
    """Keep the kappa best (energy, indices) pairs, ties to the smallest
    index tuple."""
    entries.extend(new_pairs)
    entries.sort(key=lambda p: (-p[0], p[1]))
    del entries[kappa:]


def greedy(covs: CovSet, spec: ObjectiveSpec, start_order: int,
           target_order: int, kappa: int = 10, seed: int = 0, *,
           bias_correct: bool = False, batch_size: int = 10000,
           restarts: int = 1, progress=None) -> GreedyResult:
    """Beam search growing n-plets one variable at a time.

    The beam is seeded with the kappa best n-plets from an exhaustive
    scan of start_order. Each step evaluates every one-variable extension
    of every beam member as a single batch and keeps the kappa best
    distinct candidates (ties to the lexicographically smallest).

    restarts > 1 adds extra beams seeded with random start_order n-plets
    (drawn from seed) and merges their per-order bests; the first beam is
    always the deterministic top-kappa one, so the default restarts=1
    needs no randomness at all. progress, if given, is called after every
    completed order with evaluation counters.
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
    evaluated = 0
    batches = 0

    def energies_of(indices: np.ndarray) -> np.ndarray:
        nonlocal evaluated, batches
        batch = NpletBatch(n, indices=indices, check_unique=False)
        evaluated += batch.batch_size
        batches += 1
        return evaluate_objective(
            compute_hoi_batch(covs, batch, bias_correct=bias_correct), spec)

    def report(order):
        if progress is not None:
            progress({
                "order": order,
                "batches": batches,
                "nplets": evaluated,
                "elapsed": time.perf_counter() - t0,
            })

    # deterministic seed beam: top kappa of the exhaustive start order
    top = []
    for batch in enumerate_order(n, start_order, batch_size):
        e = energies_of(batch.indices)
        pairs = [(float(e[i]), batch.row_indices(i)) for i in best_rows(e, kappa, "max")]
        _merge_top(top, pairs, kappa)
    beams = [top]
    report(start_order)

    if restarts > 1:
        rng = np.random.default_rng(seed)
        for _ in range(restarts - 1):
            starts = set()
            attempts = 0
            while len(starts) < min(kappa, pool_size) and attempts < 1000 * kappa:
                starts.add(tuple(np.sort(rng.choice(n, start_order, replace=False)).tolist()))
                attempts += 1
            idx = np.array(sorted(starts), dtype=np.int64)
            e = energies_of(idx)
            beams.append(
                [(float(e[i]), tuple(int(v) for v in idx[i])) for i in range(len(e))]
            )

    per_order = {}

    def record(order, entries):
        best_e, best_idx = min(entries, key=lambda p: (-p[0], p[1]))
        cur = per_order.get(order)
        if cur is None or (-best_e, best_idx) < (-cur[0], cur[1]):
            per_order[order] = (best_e, best_idx)

    for beam in beams:
        record(start_order, beam)
        current = beam
        for order in range(start_order + 1, target_order + 1):
            seen = {idx for _, idx in current}
            candidates = set()
            for _, idx in current:
                members = set(idx)
                for v in range(n):
                    if v not in members:
                        candidates.add(tuple(sorted(members | {v})))
            candidates -= seen
            cand = np.array(sorted(candidates), dtype=np.int64)
            nxt = []
            for at in range(0, len(cand), batch_size):
                chunk = cand[at:at + batch_size]
                e = energies_of(chunk)
                pairs = [(float(e[i]), tuple(int(v) for v in chunk[i]))
                         for i in best_rows(e, kappa, "max")]
                _merge_top(nxt, pairs, kappa)
            record(order, nxt)
            current = nxt
            report(order)

    return GreedyResult(per_order=tuple(
        OrderBest(order=o, indices=idx, energy=e, value=float(spec.value_of(e)))
        for o, (e, idx) in sorted(per_order.items())
    ))


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

    All chains are evaluated together as one mixed-order batch per
    iteration. Improving moves are always accepted; a worsening move is
    accepted with probability exp(-|dE| / Temp). Each chain draws from
    its own generator split off the master seed, so runs are reproducible
    and chain trajectories do not depend on kappa ordering. progress, if
    given, is called every 25 iterations and at the end.
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

    def energies_of(mask_rows: np.ndarray) -> np.ndarray:
        batch = NpletBatch(n, masks=mask_rows, check_unique=False)
        return evaluate_objective(
            compute_hoi_batch(covs, batch, bias_correct=bias_correct), spec)

    energies = energies_of(masks)
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
        proposals = masks.copy()
        accept_draws = np.empty(kappa)
        for c, rng in enumerate(rngs):
            row = proposals[c]
            inside = np.flatnonzero(row)
            outside = np.flatnonzero(~row)
            if within:
                if inside.size and outside.size:
                    row[rng.choice(inside)] = False
                    row[rng.choice(outside)] = True
            else:
                add = rng.random() < 0.5
                if add:
                    if inside.size < max_o and outside.size:
                        row[rng.choice(outside)] = True
                elif inside.size > min_o:
                    row[rng.choice(inside)] = False
                # bound-violating moves fall through as no-op proposals
            accept_draws[c] = rng.random()

        prop_energies = energies_of(proposals)
        delta = prop_energies - energies
        accept = (delta > 0) | (accept_draws < np.exp(-np.abs(delta) / temp))
        masks[accept] = proposals[accept]
        energies[accept] = prop_energies[accept]

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
