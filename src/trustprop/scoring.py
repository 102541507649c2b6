"""Social score computation: residual generation and iterative trust propagation.

The initial score of a layer is its own residual scores plus the neighbouring
layer's residuals pushed through the connecting trust matrix. The score is then
iterated as s <- s @ T (optionally damped: s <- lam * s @ T + (1 - lam) * s)
until successive iterates differ by at most epsilon under the configured norm,
or the iteration cap is hit. With row-stochastic T the total score mass is
conserved at every step.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError
from .model import LayerId, ScoreKind, ScoreVector, TrustMatrix
from .trust import TrustNetwork


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true/false load as bool, a subclass of int)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class ResidualKind(Enum):
    CONSTANT = "constant"
    UNIFORM = "uniform"
    NORMAL = "normal"
    SKEWED = "skewed"


@dataclass(frozen=True)
class ResidualConfig:
    """How per-entity residual scores are drawn.

    constant: every entity gets ``value``. uniform: U(low, high) with
    0 <= low <= high <= 1. normal: N(mean, stdev) clipped into [0, 1].
    skewed: Beta(alpha, beta). Draws are deterministic per seed.
    """

    distribution: ResidualKind
    value: float = 0.0
    low: float = 0.0
    high: float = 1.0
    mean: float = 0.5
    stdev: float = 0.15
    alpha: float = 2.0
    beta: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.distribution, ResidualKind):
            raise InvalidConfigError(f"unknown residual distribution {self.distribution!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise InvalidConfigError("residual seed must be a non-negative integer")
        for name in ("value", "low", "high", "mean", "stdev", "alpha", "beta"):
            if not is_real(getattr(self, name)):
                raise InvalidConfigError(
                    f"residual {name} must be a finite number, got {getattr(self, name)!r}")
        if self.distribution is ResidualKind.CONSTANT and not 0.0 <= self.value <= 1.0:
            raise InvalidConfigError(f"constant residual must lie in [0, 1], got {self.value}")
        if self.distribution is ResidualKind.UNIFORM:
            if not 0.0 <= self.low <= self.high <= 1.0:
                raise InvalidConfigError(
                    f"uniform residual needs 0 <= low <= high <= 1, got [{self.low}, {self.high}]")
        if self.distribution is ResidualKind.NORMAL and self.stdev <= 0:
            raise InvalidConfigError(f"normal residual needs stdev > 0, got {self.stdev}")
        if self.distribution is ResidualKind.SKEWED and (self.alpha <= 0 or self.beta <= 0):
            raise InvalidConfigError(
                f"skewed residual needs alpha > 0 and beta > 0, got ({self.alpha}, {self.beta})")

    @classmethod
    def constant(cls, value: float, seed: int = 0) -> "ResidualConfig":
        return cls(distribution=ResidualKind.CONSTANT, value=value, seed=seed)

    @classmethod
    def uniform(cls, low: float = 0.0, high: float = 1.0, seed: int = 0) -> "ResidualConfig":
        return cls(distribution=ResidualKind.UNIFORM, low=low, high=high, seed=seed)

    @classmethod
    def normal(cls, mean: float = 0.5, stdev: float = 0.15, seed: int = 0) -> "ResidualConfig":
        return cls(distribution=ResidualKind.NORMAL, mean=mean, stdev=stdev, seed=seed)

    @classmethod
    def skewed(cls, alpha: float = 2.0, beta: float = 8.0, seed: int = 0) -> "ResidualConfig":
        return cls(distribution=ResidualKind.SKEWED, alpha=alpha, beta=beta, seed=seed)

    @classmethod
    def from_mapping(cls, raw: Mapping, default_seed: int = 0) -> "ResidualConfig":
        data = dict(raw)
        kind = data.pop("distribution", None)
        try:
            distribution = ResidualKind(kind)
        except ValueError:
            raise InvalidConfigError(f"unknown residual distribution {kind!r}") from None
        allowed = {"value", "low", "high", "mean", "stdev", "alpha", "beta", "seed"}
        unknown = set(data) - allowed
        if unknown:
            raise InvalidConfigError(f"unknown residual config key(s): {', '.join(sorted(unknown))}")
        data.setdefault("seed", default_seed)
        try:
            return cls(distribution=distribution, **data)
        except TypeError as exc:
            raise InvalidConfigError(str(exc)) from exc


def generate_residual(config: ResidualConfig, n: int, layer: LayerId,
                      entity_ids: tuple[str, ...] | None = None) -> ScoreVector:
    """Draw a residual score vector of length n for one layer."""
    if n < 0:
        raise InvalidConfigError(f"residual length must be non-negative, got {n}")
    ids = entity_ids if entity_ids is not None else tuple(f"{layer.tag}{i}" for i in range(n))
    if len(ids) != n:
        raise DimensionMismatchError(f"{len(ids)} entity ids for residual of length {n}")
    rng = np.random.default_rng(config.seed)
    if config.distribution is ResidualKind.CONSTANT:
        values = np.full(n, config.value)
    elif config.distribution is ResidualKind.UNIFORM:
        values = rng.uniform(config.low, config.high, n)
    elif config.distribution is ResidualKind.NORMAL:
        values = np.clip(rng.normal(config.mean, config.stdev, n), 0.0, 1.0)
    else:
        values = rng.beta(config.alpha, config.beta, n)
    return ScoreVector(layer=layer, kind=ScoreKind.RESIDUAL, entity_ids=ids, values=values)


class DeltaNorm(Enum):
    """Norm used on the difference of successive iterates."""

    MAX_ABS = "max_abs"
    L1 = "l1"


@dataclass(frozen=True)
class ConvergenceConfig:
    epsilon: float = 0.001
    max_iterations: int = 1000
    norm: DeltaNorm = DeltaNorm.MAX_ABS

    def __post_init__(self):
        if not is_real(self.epsilon) or self.epsilon <= 0:
            raise InvalidConfigError(f"epsilon must be a positive number, got {self.epsilon!r}")
        if not is_int(self.max_iterations) or self.max_iterations < 0:
            raise InvalidConfigError(
                f"max_iterations must be an integer >= 0, got {self.max_iterations!r}")
        if not isinstance(self.norm, DeltaNorm):
            raise InvalidConfigError(f"unknown delta norm {self.norm!r}")

    def delta(self, diff: np.ndarray) -> float:
        if self.norm is DeltaNorm.MAX_ABS:
            return float(np.abs(diff).max()) if diff.size else 0.0
        return float(np.abs(diff).sum())


def _check_damping(damping: float) -> float:
    if not 0.0 < damping <= 1.0:
        raise InvalidConfigError(f"damping must lie in (0, 1], got {damping}")
    return float(damping)


def initial_score(own_residual: ScoreVector, feed_residual: ScoreVector,
                  feed_trust: TrustMatrix) -> ScoreVector:
    """Initial score: own residuals plus the feeding layer's residuals pushed
    through the trust matrix that points from the feeding layer to this one."""
    if feed_trust.rows is not feed_residual.layer or feed_trust.cols is not own_residual.layer:
        raise DimensionMismatchError(
            f"feed trust is {feed_trust.rows.value}->{feed_trust.cols.value}, but residuals are "
            f"{feed_residual.layer.value} feeding {own_residual.layer.value}"
        )
    if feed_trust.shape != (len(feed_residual), len(own_residual)):
        raise DimensionMismatchError(
            f"feed trust shape {feed_trust.shape} does not match residual lengths "
            f"({len(feed_residual)}, {len(own_residual)})"
        )
    values = own_residual.values + feed_residual.values @ feed_trust.values
    return ScoreVector(layer=own_residual.layer, kind=ScoreKind.INITIAL,
                       entity_ids=own_residual.entity_ids, values=values)


@dataclass(frozen=True)
class PropagationResult:
    scores: ScoreVector
    iterations: int
    converged: bool
    #: delta-norm after each iteration, for convergence traces
    deltas: tuple[float, ...] = field(default_factory=tuple)


def _check_square(s0: ScoreVector, trust: TrustMatrix) -> None:
    if not trust.is_intra or trust.rows is not s0.layer:
        raise DimensionMismatchError(
            f"propagation needs the {s0.layer.value} layer's own trust matrix, "
            f"got {trust.rows.value}->{trust.cols.value}"
        )
    if trust.shape != (len(s0), len(s0)):
        raise DimensionMismatchError(
            f"trust shape {trust.shape} does not match score length {len(s0)}")


def propagate(s0: ScoreVector, trust: TrustMatrix, config: ConvergenceConfig = ConvergenceConfig(),
              damping: float = 1.0) -> PropagationResult:
    """Iterate the score through the trust matrix until it settles.

    Returns the final scores, the number of iterations performed, whether the
    delta dropped to epsilon or below, and the per-iteration deltas. With
    max_iterations = 0 the initial scores come back unchanged and unconverged.
    """
    _check_square(s0, trust)
    damping = _check_damping(damping)
    if len(s0) == 0:
        return PropagationResult(
            scores=ScoreVector(layer=s0.layer, kind=ScoreKind.SOCIAL,
                               entity_ids=s0.entity_ids, values=s0.values),
            iterations=0, converged=True)
    current = s0.values.astype(float)
    deltas: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        nxt = current @ trust.values
        if damping != 1.0:
            nxt = damping * nxt + (1.0 - damping) * current
        delta = config.delta(nxt - current)
        deltas.append(delta)
        current = nxt
        iterations += 1
        if delta <= config.epsilon:
            converged = True
            break
    scores = ScoreVector(layer=s0.layer, kind=ScoreKind.SOCIAL,
                         entity_ids=s0.entity_ids, values=np.maximum(current, 0.0))
    return PropagationResult(scores=scores, iterations=iterations,
                             converged=converged, deltas=tuple(deltas))


def closed_form_score(s0: ScoreVector, trust: TrustMatrix, r: int,
                      damping: float = 1.0) -> ScoreVector:
    """Score after exactly r iterations, computed as s0 times the r-th matrix
    power (of the damped matrix when damping < 1)."""
    _check_square(s0, trust)
    damping = _check_damping(damping)
    if r < 0:
        raise InvalidConfigError(f"iteration count must be >= 0, got {r}")
    matrix = trust.values
    if damping != 1.0:
        matrix = damping * matrix + (1.0 - damping) * np.eye(len(s0))
    power = np.linalg.matrix_power(matrix, r) if len(s0) else matrix
    values = s0.values @ power if len(s0) else s0.values
    return ScoreVector(layer=s0.layer, kind=ScoreKind.SOCIAL,
                       entity_ids=s0.entity_ids, values=np.maximum(values, 0.0))


#: residual feed for each layer: hospital and doctor scores start from
#: department residuals; departments start from hospital residuals by default.
DEFAULT_FEEDS: dict[LayerId, LayerId] = {
    LayerId.HOSPITAL: LayerId.DEPARTMENT,
    LayerId.DEPARTMENT: LayerId.HOSPITAL,
    LayerId.DOCTOR: LayerId.DEPARTMENT,
}


@dataclass(frozen=True)
class LayerScores:
    residual: ScoreVector
    initial: ScoreVector
    result: PropagationResult


def score_network(
    trusts: TrustNetwork,
    residuals: Mapping[LayerId, ScoreVector],
    config: ConvergenceConfig = ConvergenceConfig(),
    damping: float = 1.0,
    department_feed: LayerId = LayerId.HOSPITAL,
) -> dict[LayerId, LayerScores]:
    """Score all three layers with the configured inter-layer residual feeds."""
    if department_feed not in (LayerId.HOSPITAL, LayerId.DOCTOR):
        raise InvalidConfigError(
            f"department scores can be fed by hospital or doctor residuals, "
            f"not {getattr(department_feed, 'value', department_feed)!r}"
        )
    feeds = dict(DEFAULT_FEEDS)
    feeds[LayerId.DEPARTMENT] = department_feed
    out = {}
    for layer, feed_layer in feeds.items():
        own = residuals[layer]
        feed = residuals[feed_layer]
        s0 = initial_score(own, feed, trusts.matrix(feed_layer, layer))
        out[layer] = LayerScores(residual=own, initial=s0,
                                 result=propagate(s0, trusts.intra[layer], config, damping))
    return out
