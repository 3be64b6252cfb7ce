"""Analytic ground-truth covariances from small graphical constructions.

R-systems (one hidden cause driving every source) are redundancy-dominated
and S-systems (sources colliding into one target) synergy-dominated, with
strength set by a coupling c. Block-diagonal concatenations of independent
systems keep every measure additive, which makes these constructions exact
test beds for estimators and search heuristics.
"""

import json
import operator
from dataclasses import dataclass

import numpy as np

from .copula_core import CovarianceMatrix, CovSet, DataMatrix, _as_cov, _jittered_cholesky
from .errors import InsufficientSamples, InvalidData, InvalidNplet
from .measures import compute_hoi_batch
from .nplet_engine import NpletBatch

_BLOCK_KINDS = ("r", "s", "independent")


def r_system_cov(n_sources: int, c: float) -> CovarianceMatrix:
    """Common-cause system: a unit-variance Y (last) drives every source.

    Sources have variance c^2 + 1 and pairwise covariance c^2; each
    couples to Y with covariance c. The determinant is 1 for every c.
    """
    _check_block_args(n_sources, c)
    m = n_sources
    sigma = np.full((m + 1, m + 1), c * c)
    np.fill_diagonal(sigma, c * c + 1.0)
    sigma[m, :] = c
    sigma[:, m] = c
    sigma[m, m] = 1.0
    return CovarianceMatrix(sigma, n_samples_used=0)


def s_system_cov(n_sources: int, c: float) -> CovarianceMatrix:
    """Collider system: independent unit sources all feed Y (last).

    Sources are marginally independent (identity block); each couples to
    Y with covariance c and Y has variance n_sources * c^2 + 1.
    """
    _check_block_args(n_sources, c)
    m = n_sources
    sigma = np.eye(m + 1)
    sigma[m, :m] = c
    sigma[:m, m] = c
    sigma[m, m] = m * c * c + 1.0
    return CovarianceMatrix(sigma, n_samples_used=0)


def _check_block_args(n_sources: int, c: float) -> None:
    if n_sources < 1:
        raise InvalidData(f"n_sources must be >= 1, got {n_sources}")
    if not np.isfinite(c):
        raise InvalidData("coupling c must be finite")


def block_concat(blocks: list) -> CovarianceMatrix:
    """Block-diagonal concatenation; (start, stop) boundaries are recorded
    on the result for ground-truth bookkeeping."""
    if not blocks:
        raise InvalidData("need at least one block")
    blocks = [_as_cov(b) for b in blocks]
    n = sum(b.n_variables for b in blocks)
    sigma = np.zeros((n, n))
    bounds = []
    at = 0
    for b in blocks:
        stop = at + b.n_variables
        sigma[at:stop, at:stop] = b.sigma
        bounds.append((at, stop))
        at = stop
    return CovarianceMatrix(sigma, n_samples_used=0, block_slices=tuple(bounds))


def sample_gaussian(cov, t: int, seed: int) -> DataMatrix:
    """T i.i.d. draws from N(0, sigma), reproducible from the seed."""
    c = _as_cov(cov)
    if t < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {t}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((t, c.n_variables))
    return DataMatrix(z @ _jittered_cholesky(c.sigma).T)


def ground_truth_hoi(cov, nplet) -> tuple:
    """(tc, dtc, o, s) of one n-plet straight from an analytic covariance.

    No copula transform and no bias correction: the input is treated as
    the population covariance.
    """
    c = _as_cov(cov)
    try:
        idx = [operator.index(v) for v in nplet]
    except TypeError:
        raise InvalidNplet(f"n-plet indices must be integers, got {nplet!r}") from None
    if len(set(idx)) != len(idx):
        raise InvalidNplet("duplicate indices in n-plet")
    if not idx:
        raise InvalidNplet("empty n-plet")
    batch = NpletBatch(c.n_variables, indices=np.array([sorted(idx)], dtype=np.int64))
    hoi = compute_hoi_batch(CovSet([c]), batch, bias_correct=False)
    return (
        float(hoi.tc[0, 0]),
        float(hoi.dtc[0, 0]),
        float(hoi.o[0, 0]),
        float(hoi.s[0, 0]),
    )


@dataclass(frozen=True)
class PgmBlock:
    """One generator block: kind 'r', 's' or 'independent'.

    R/S blocks span n_sources + 1 variables (target last); independent
    blocks span n_sources unit-variance variables and ignore c.
    """

    kind: str
    n_sources: int
    c: float = 1.0

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in _BLOCK_KINDS:
            raise InvalidData(f"block kind must be one of {_BLOCK_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        _check_block_args(self.n_sources, self.c)

    @property
    def size(self) -> int:
        return self.n_sources + (0 if self.kind == "independent" else 1)

    def cov(self) -> CovarianceMatrix:
        if self.kind == "r":
            return r_system_cov(self.n_sources, self.c)
        if self.kind == "s":
            return s_system_cov(self.n_sources, self.c)
        return CovarianceMatrix(np.eye(self.n_sources), n_samples_used=0)


@dataclass
class PgmSpec:
    """An ordered list of blocks assembled into one block-diagonal system."""

    blocks: list

    def __post_init__(self):
        self.blocks = list(self.blocks)
        if not self.blocks:
            raise InvalidData("PgmSpec needs at least one block")
        if not all(isinstance(b, PgmBlock) for b in self.blocks):
            raise InvalidData("PgmSpec entries must be PgmBlock")

    @property
    def n_variables(self) -> int:
        return sum(b.size for b in self.blocks)

    def build(self) -> CovarianceMatrix:
        """The full analytic covariance with block boundaries recorded."""
        return block_concat([b.cov() for b in self.blocks])

    def variable_names(self) -> list:
        """Stable per-block names: r0_x0 .. r0_y, s1_x0 .. s1_y, n2_x0 .."""
        names = []
        for i, b in enumerate(self.blocks):
            prefix = {"r": f"r{i}", "s": f"s{i}", "independent": f"n{i}"}[b.kind]
            names.extend(f"{prefix}_x{j}" for j in range(b.n_sources))
            if b.kind != "independent":
                names.append(f"{prefix}_y")
        return names

    @classmethod
    def from_json(cls, text: str) -> "PgmSpec":
        """Parse {"blocks": [{"kind": "R", "n_sources": 2, "c": 1.0}, ...]}."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidData(f"malformed JSON: {e}") from None
        if not isinstance(doc, dict) or "blocks" not in doc:
            raise InvalidData('spec JSON must be an object with a "blocks" list')
        extra = set(doc) - {"blocks"}
        if extra:
            raise InvalidData(f"unknown top-level field(s): {sorted(extra)}")
        raw = doc["blocks"]
        if not isinstance(raw, list) or not raw:
            raise InvalidData('"blocks" must be a nonempty list')
        blocks = []
        for b in raw:
            if not isinstance(b, dict) or "kind" not in b or "n_sources" not in b:
                raise InvalidData('each block needs "kind" and "n_sources"')
            extra = set(b) - {"kind", "n_sources", "c"}
            if extra:
                raise InvalidData(f"unknown block field(s): {sorted(extra)}")
            blocks.append(PgmBlock(str(b["kind"]), int(b["n_sources"]),
                                   float(b.get("c", 1.0))))
        return cls(blocks)

    def to_json(self) -> str:
        return json.dumps(
            {"blocks": [
                {"kind": b.kind, "n_sources": b.n_sources, "c": b.c}
                for b in self.blocks
            ]},
            indent=2,
        )
