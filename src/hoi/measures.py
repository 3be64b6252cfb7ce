"""Mutual information and the four interaction measures.

TC (total correlation) captures collective constraints, DTC (dual total
correlation) shared randomness; their difference is the O-information
(negative means synergy-dominated, positive redundancy-dominated) and
their sum the S-information. All values are in nats.
"""

from dataclasses import dataclass

import numpy as np

from .copula_core import CovSet, _as_cov
from .errors import InvalidNplet
from .nplet_engine import EntropyTerms, NpletBatch, entropy_terms


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
    """All four measures from the (B, D) sums of EntropyTerms.sums.

    With J the joint excess entropy, S the sum of the members' and L the
    sum of the leave-one-out ones, at order k:

        tc = S - J,  dtc = (1 - k) J + L,  o = (k - 2) J + (S - L),  s = tc + dtc.

    Every route into the measures (compute_hoi_batch, a scan's lattice,
    greedy and annealing) ends here.
    """
    k = orders.astype(np.float64)[:, None]
    tc = singles - joint
    dtc = (1.0 - k) * joint + loo
    return HoiBatch(tc=tc, dtc=dtc, o=(k - 2.0) * joint + (singles - loo), s=tc + dtc,
                    order=orders)


def hoi_from_terms(terms: EntropyTerms) -> HoiBatch:
    """All four measures from one set of entropy terms, summed once."""
    return hoi_from_sums(*terms.sums(), terms.orders)


def tc_from_terms(terms: EntropyTerms) -> np.ndarray:
    """Total correlation: sum of marginal entropies minus the joint one."""
    return hoi_from_terms(terms).tc


def dtc_from_terms(terms: EntropyTerms) -> np.ndarray:
    """Dual total correlation: (1 - k) H(X) + sum_j H(X without j)."""
    return hoi_from_terms(terms).dtc


def o_information(terms: EntropyTerms) -> np.ndarray:
    """O-information from the expanded entropy form.

    (k - 2) H(X) + (sum_j H(X_j) - sum_j H(X without j)), that is
    (k - 2) J + (S - L) in hoi_from_sums' sums. Algebraically equal to
    tc - dtc; the expanded form skips one extra cancellation. At order 2
    it is S - L. A scan's pivot route reads both from the same singles
    (its table 1 holds them), so there every pair has O-information
    exactly 0; on other routes it is 0 to rounding.
    """
    return hoi_from_terms(terms).o


def s_information(terms: EntropyTerms) -> np.ndarray:
    """S-information, tc + dtc: overall interdependence strength."""
    return hoi_from_terms(terms).s


def compute_hoi_batch(covs: CovSet, batch: NpletBatch, bias_correct: bool = False) -> HoiBatch:
    """All four measures for a whole batch in a single pass.

    The entropy terms are computed once, summed once (EntropyTerms.sums)
    and shared by every measure.
    """
    return hoi_from_terms(entropy_terms(covs, batch, bias_correct=bias_correct))


def pairwise_mi(cov, i: int, j: int, bias_correct: bool = False) -> float:
    """Mutual information between variables i and j, in nats.

    Equals the total correlation of the pair; at order 2 TC and DTC
    coincide, so this is also their common value.
    """
    if i == j:
        raise InvalidNplet("pairwise MI needs two distinct variables")
    c = _as_cov(cov)
    n = c.n_variables
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidNplet(f"indices ({i}, {j}) out of range for N={n}")
    pair = np.array([sorted((int(i), int(j)))], dtype=np.int64)
    batch = NpletBatch(n, indices=pair)
    terms = entropy_terms(CovSet([c]), batch, bias_correct=bias_correct)
    return float(hoi_from_terms(terms).tc[0, 0])
