"""Higher-order interaction measures for continuous multivariate data.

Estimates total correlation, dual total correlation, O-information and
S-information through Gaussian-copula entropies, with exhaustive streamed
scans for small systems and greedy / simulated-annealing subset search
for large ones. Analytic common-cause (redundant) and collider
(synergistic) constructions provide exact ground truths.
"""

from .copula_core import (
    NORMAL_ENTROPY,
    CovarianceMatrix,
    CovSet,
    DataMatrix,
    EntropyValue,
    copula_entropy,
    copula_transform,
    entropy_bias,
    estimate_covariance,
    gaussian_entropy_nats,
    rank_columns,
)
from .errors import (
    DegenerateColumn,
    DegenerateEffectSize,
    ExhaustiveLimitExceeded,
    HoiError,
    InsufficientSamples,
    InvalidData,
    InvalidNplet,
    InvalidOrderRange,
    NotPositiveDefinite,
)
from .measures import (
    HoiBatch,
    compute_hoi_batch,
    pairwise_mi,
)
from .nplet_engine import (
    NpletBatch,
    SubCovBatch,
    count_nplets,
    entropy_terms,
    enumerate_order,
    extract_subcov_batch,
    pad_subcov_batch,
)
from .optimizers import (
    AnnealSchedule,
    GreedyResult,
    ObjectiveSpec,
    OptimState,
    OrderBest,
    anneal,
    evaluate_objective,
    greedy,
)
from .scanner import (
    FEATURE_NAMES,
    Callback,
    FeatureAccumulator,
    FeatureVector,
    Histogram,
    Reducer,
    TopEntry,
    TopK,
    extract_features,
    scan,
)
from .synthetic import (
    PgmBlock,
    PgmSpec,
    block_concat,
    ground_truth_hoi,
    r_system_cov,
    s_system_cov,
    sample_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "NORMAL_ENTROPY",
    "CovarianceMatrix",
    "CovSet",
    "DataMatrix",
    "EntropyValue",
    "copula_entropy",
    "copula_transform",
    "entropy_bias",
    "estimate_covariance",
    "gaussian_entropy_nats",
    "rank_columns",
    "HoiError",
    "InvalidData",
    "DegenerateColumn",
    "InsufficientSamples",
    "NotPositiveDefinite",
    "InvalidNplet",
    "InvalidOrderRange",
    "ExhaustiveLimitExceeded",
    "DegenerateEffectSize",
    "HoiBatch",
    "compute_hoi_batch",
    "pairwise_mi",
    "NpletBatch",
    "SubCovBatch",
    "count_nplets",
    "entropy_terms",
    "enumerate_order",
    "extract_subcov_batch",
    "pad_subcov_batch",
    "AnnealSchedule",
    "GreedyResult",
    "ObjectiveSpec",
    "OptimState",
    "OrderBest",
    "anneal",
    "evaluate_objective",
    "greedy",
    "FEATURE_NAMES",
    "Callback",
    "FeatureAccumulator",
    "FeatureVector",
    "Histogram",
    "Reducer",
    "TopEntry",
    "TopK",
    "extract_features",
    "scan",
    "PgmBlock",
    "PgmSpec",
    "block_concat",
    "ground_truth_hoi",
    "r_system_cov",
    "s_system_cov",
    "sample_gaussian",
]
