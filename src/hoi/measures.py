"""Mutual information and the four interaction measures.

TC (total correlation) captures collective constraints, DTC (dual total
correlation) shared randomness; their difference is the O-information
(negative means synergy-dominated, positive redundancy-dominated) and
their sum the S-information. All values are in nats.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .copula_core import CovSet, _as_cov
from .errors import InvalidNplet
from .nplet_engine import NpletBatch, entropy_terms


@dataclass
class HoiBatch:
    """Per-(n-plet, dataset) measures: tc, dtc, o, s are (B, D) arrays,
    order is the (B,) effective order of each row."""

    tc: np.ndarray
    dtc: np.ndarray
    o: np.ndarray
    s: np.ndarray
    order: np.ndarray


def hoi_from_sums(joint: np.ndarray, singles: np.ndarray, loo: np.ndarray,
                  orders: np.ndarray) -> HoiBatch:
    """All four measures from the (B, D) sums J, S and L of the entropy terms.

    With J the joint excess entropy, S the sum of the members' and L the
    sum of the leave-one-out ones, at order k:

        tc = S - J,  dtc = (1 - k) J + L,  o = (k - 2) J + (S - L),  s = tc + dtc.

    Every route into the measures (compute_hoi_batch, a scan's lattice,
    greedy and annealing) ends here. O-information takes the expanded
    entropy form: algebraically equal to tc - dtc, it skips one extra
    cancellation. At order 2 it is S - L. A scan's pivot route reads both
    from the same singles (its table 1 holds them), so there every pair
    has O-information exactly 0; on other routes it is 0 to rounding.
    """
    k = orders.astype(np.float64)[:, None]
    tc = singles - joint
    dtc = (1.0 - k) * joint + loo
    return HoiBatch(tc=tc, dtc=dtc, o=(k - 2.0) * joint + (singles - loo), s=tc + dtc,
                    order=orders)


def compute_hoi_batch(covs: CovSet, batch: NpletBatch, bias_correct: bool = False) -> HoiBatch:
    """All four measures for a whole batch in a single pass.

    The direct path's sums J, S and L (entropy_terms) are computed once
    and shared by every measure.
    """
    return hoi_from_sums(*entropy_terms(covs, batch, bias_correct=bias_correct),
                         batch.orders())


def pairwise_mi(cov, i: int, j: int, bias_correct: bool = False) -> float:
    """Mutual information between variables i and j, in nats.

    Equals the total correlation of the pair; at order 2 TC and DTC
    coincide, so this is also their common value.
    """
    try:
        i, j = operator.index(i), operator.index(j)
    except TypeError:
        raise InvalidNplet(f"pairwise MI needs integer indices, got ({i!r}, {j!r})") from None
    if i == j:
        raise InvalidNplet("pairwise MI needs two distinct variables")
    c = _as_cov(cov)
    n = c.n_variables
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidNplet(f"indices ({i}, {j}) out of range for N={n}")
    pair = np.array([sorted((i, j))], dtype=np.int64)
    return float(compute_hoi_batch(CovSet([c]), NpletBatch(n, indices=pair),
                                   bias_correct=bias_correct).tc[0, 0])
