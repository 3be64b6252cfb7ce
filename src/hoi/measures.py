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


def tc_from_terms(terms: EntropyTerms) -> np.ndarray:
    """Total correlation: sum of marginal entropies minus the joint one."""
    return terms.excess_singles.sum(axis=-1) - terms.excess_joint


def dtc_from_terms(terms: EntropyTerms) -> np.ndarray:
    """Dual total correlation: (1 - k) H(X) + sum_j H(X without j)."""
    k = terms.orders.astype(np.float64)[:, None]
    return (1.0 - k) * terms.excess_joint + terms.excess_leave_one_out.sum(axis=-1)


def o_information(terms: EntropyTerms) -> np.ndarray:
    """O-information from the expanded entropy form.

    (k - 2) H(X) + sum_j [H(X_j) - H(X without j)]. Algebraically equal
    to tc - dtc; the expanded form skips one extra cancellation. Every
    2-element n-plet has O-information exactly 0.
    """
    k = terms.orders.astype(np.float64)[:, None]
    gap = (terms.excess_singles - terms.excess_leave_one_out).sum(axis=-1)
    return (k - 2.0) * terms.excess_joint + gap


def s_information(terms: EntropyTerms) -> np.ndarray:
    """S-information, tc + dtc: overall interdependence strength."""
    return tc_from_terms(terms) + dtc_from_terms(terms)


def hoi_from_terms(terms: EntropyTerms) -> HoiBatch:
    """All four measures from one set of entropy terms."""
    tc = tc_from_terms(terms)
    dtc = dtc_from_terms(terms)
    return HoiBatch(tc=tc, dtc=dtc, o=o_information(terms), s=tc + dtc,
                    order=terms.orders)


def compute_hoi_batch(covs: CovSet, batch: NpletBatch, bias_correct: bool = False) -> HoiBatch:
    """All four measures for a whole batch in a single pass.

    The entropy terms are computed once and shared by every measure.
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
    return float(tc_from_terms(terms)[0, 0])
