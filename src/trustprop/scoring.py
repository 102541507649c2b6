"""Social score computation: residual generation and iterative trust propagation.

The initial score of a layer is its own residual scores plus the neighbouring
layer's residuals pushed through the connecting trust matrix. The score is then
iterated as s <- s @ T (optionally damped: s <- lam * s @ T + (1 - lam) * s)
until successive iterates differ by at most epsilon under the configured norm,
or the iteration cap is hit. With row-stochastic T the total score mass is
conserved at every step.

Every product ``s @ T`` sums ``s[i] * T[i, :]`` in row order, so its bits do not
depend on the BLAS thread count. T is multiplied over the nonzero cells that the
``TrustMatrix`` stores, so a step costs its cells, not n², and its dense values
are never built: a matrix under an eighth full gathers each cell's score and sums
the weights with ``np.bincount``; a fuller one repeats each score over its row's
cells and adds them with ``np.add.at``. Both add a column's cells in row order.

Convergence is checked a block of steps at a time: a block's iterates are kept,
and one reduction gives every step's delta, each with the bits the step-by-step
delta had. Every delta up to the first one at or below epsilon is kept, and the
scores are that step's. A constant residual draws nothing.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, InputError
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
            raise ConfigError(f"unknown residual distribution {self.distribution!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError("residual seed must be a non-negative integer")
        for name in ("value", "low", "high", "mean", "stdev", "alpha", "beta"):
            if not is_real(getattr(self, name)):
                raise ConfigError(
                    f"residual {name} must be a finite number, got {getattr(self, name)!r}")
        if self.distribution is ResidualKind.CONSTANT and not 0.0 <= self.value <= 1.0:
            raise ConfigError(f"constant residual must lie in [0, 1], got {self.value}")
        if self.distribution is ResidualKind.UNIFORM:
            if not 0.0 <= self.low <= self.high <= 1.0:
                raise ConfigError(
                    f"uniform residual needs 0 <= low <= high <= 1, got [{self.low}, {self.high}]")
        if self.distribution is ResidualKind.NORMAL and self.stdev <= 0:
            raise ConfigError(f"normal residual needs stdev > 0, got {self.stdev}")
        if self.distribution is ResidualKind.SKEWED and (self.alpha <= 0 or self.beta <= 0):
            raise ConfigError(
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
        if not isinstance(raw, Mapping):
            raise ConfigError(f"residual config must be a mapping, got {raw!r}")
        data = dict(raw)
        kind = data.pop("distribution", None)
        try:
            distribution = ResidualKind(kind)
        except ValueError:
            raise ConfigError(f"unknown residual distribution {kind!r}") from None
        unknown = set(data) - _RESIDUAL_PARAMS[distribution] - {"seed"}
        if unknown:
            raise ConfigError(f"unknown {distribution.value} residual key(s): "
                              f"{', '.join(sorted(unknown))}")
        data.setdefault("seed", default_seed)
        return cls(distribution=distribution, **data)


#: the parameters each residual distribution reads, besides its seed
_RESIDUAL_PARAMS = {
    ResidualKind.CONSTANT: {"value"},
    ResidualKind.UNIFORM: {"low", "high"},
    ResidualKind.NORMAL: {"mean", "stdev"},
    ResidualKind.SKEWED: {"alpha", "beta"},
}


def generate_residual(config: ResidualConfig, n: int, layer: LayerId,
                      entity_ids: tuple[str, ...] | None = None) -> ScoreVector:
    """Draw a residual score vector of length n for one layer."""
    if n < 0:
        raise ConfigError(f"residual length must be non-negative, got {n}")
    ids = entity_ids if entity_ids is not None else tuple(f"{layer.tag}{i}" for i in range(n))
    if len(ids) != n:
        raise InputError(f"{len(ids)} entity ids for residual of length {n}")
    if config.distribution is ResidualKind.CONSTANT:
        return ScoreVector(layer=layer, kind=ScoreKind.RESIDUAL, entity_ids=ids,
                           values=np.full(n, config.value))
    rng = np.random.default_rng(config.seed)
    if config.distribution is ResidualKind.UNIFORM:
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
            raise ConfigError(f"epsilon must be a positive number, got {self.epsilon!r}")
        if not is_int(self.max_iterations) or self.max_iterations < 0:
            raise ConfigError(
                f"max_iterations must be an integer >= 0, got {self.max_iterations!r}")
        if not isinstance(self.norm, DeltaNorm):
            raise ConfigError(f"unknown delta norm {self.norm!r}")

    def delta(self, diff: np.ndarray) -> np.ndarray | float:
        """The norm of ``diff``, or of each row of a 2-D ``diff``. A row of a C-contiguous
        array is summed in numpy's pairwise order, as a 1-D array is, so each row's norm
        has the bits of the row's own."""
        absolute = np.abs(diff)
        if self.norm is DeltaNorm.MAX_ABS:
            return np.maximum.reduce(absolute, axis=-1, initial=0.0)
        return np.add.reduce(absolute, axis=-1)


def _check_damping(damping: float) -> float:
    if not is_real(damping) or not 0.0 < damping <= 1.0:
        raise ConfigError(f"damping must be a number in (0, 1], got {damping!r}")
    return float(damping)


#: the share of nonzero cells from which a product repeats each score over its row's
#: cells rather than gathering one score per cell. Repeating pays where rows are long:
#: on a 16 %-full 1 063-node matrix a product takes 0.41-0.56 ms against 0.77-0.80 ms
#: gathered; but on the 0.03-0.1 %-full matrices of one to four cells a row of a
#: 13 000-doctor corpus it takes 1.0 to 1.7 times as long (numpy 2.4)
_DENSE_SHARE = 1 / 8


def _is_dense(matrix: TrustMatrix) -> bool:
    """Whether a product with the matrix repeats each score over its row's cells."""
    return matrix.nonzero_count >= _DENSE_SHARE * math.prod(matrix.shape)


def _row_order_product(matrix: TrustMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The product ``vector -> vector @ matrix.values``, summed as
    ``acc = acc + vector[i] * T[i]`` over the rows in order, from the matrix's cells,
    with its route, cells and shape read once, and a new array from each call. A
    dense matrix repeats each score over its row's cells, counted once, and
    ``np.add.at`` adds the weights into their columns; a sparse one gathers each
    cell's score and ``np.bincount`` sums the weights. Both routes give the same
    bits: each adds a column's cells in the order of the row-major cell list."""
    n_rows, n_cols = matrix.shape
    rows, cols, values = matrix.cells
    if _is_dense(matrix):
        counts = np.bincount(rows, minlength=n_rows)

        def product(vector):
            weights = np.repeat(vector, counts)
            np.multiply(weights, values, out=weights)
            out = np.zeros(n_cols)
            np.add.at(out, cols, weights)
            return out
        return product
    if not len(values):  # bincount over no weights would give int64 zeros
        return lambda vector: np.zeros(n_cols)
    return lambda vector: np.bincount(cols, weights=vector[rows] * values, minlength=n_cols)


def initial_score(own_residual: ScoreVector, feed_residual: ScoreVector,
                  feed_trust: TrustMatrix) -> ScoreVector:
    """Initial score: own residuals plus the feeding layer's residuals pushed
    through the trust matrix that points from the feeding layer to this one.
    The matrix's row and column ids must be the two residuals' entity ids."""
    if feed_trust.rows is not feed_residual.layer or feed_trust.cols is not own_residual.layer:
        raise InputError(
            f"feed trust is {feed_trust.rows.value}->{feed_trust.cols.value}, but residuals are "
            f"{feed_residual.layer.value} feeding {own_residual.layer.value}"
        )
    if (feed_trust.row_ids, feed_trust.col_ids) != (feed_residual.entity_ids,
                                                    own_residual.entity_ids):
        raise InputError(
            f"feed trust {feed_trust.tag} is not indexed by the {feed_residual.layer.value} and "
            f"{own_residual.layer.value} residuals' entity ids, in their order"
        )
    values = own_residual.values + _row_order_product(feed_trust)(feed_residual.values)
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
        raise InputError(
            f"propagation needs the {s0.layer.value} layer's own trust matrix, "
            f"got {trust.rows.value}->{trust.cols.value}"
        )
    if trust.row_ids != s0.entity_ids or trust.col_ids != s0.entity_ids:
        raise InputError(f"{trust.tag} trust is not indexed by the {s0.layer.value} scores' "
                         f"entity ids, in their order")


#: a block keeps at most this many scores in its iterates, and as many in their
#: differences, unless one step alone holds more: a few hundred kB at most
_BLOCK_SCORES = 2 ** 14
#: from this many cells a step costs its cells more than its fixed cost, and the
#: steps that a block runs past the converged one cost more than the block saves:
#: uncapped blocks slowed an 8 410-cell matrix that converges in 19 steps from
#: 45 to 68 us a step
_BLOCK_CELLS = 2 ** 12


def _block_cap(trust: TrustMatrix) -> int:
    """The longest block of steps for this matrix: one step for a dense matrix or
    from ``_BLOCK_CELLS`` cells, else as many as ``_BLOCK_SCORES`` scores hold."""
    if _is_dense(trust) or trust.nonzero_count >= _BLOCK_CELLS:
        return 1
    return max(1, _BLOCK_SCORES // trust.shape[0])


def propagate(s0: ScoreVector, trust: TrustMatrix, config: ConvergenceConfig = ConvergenceConfig(),
              damping: float = 1.0) -> PropagationResult:
    """Iterate the score through the trust matrix until it settles.

    Returns the final scores, the number of iterations performed, whether the
    delta dropped to epsilon or below, and the per-iteration deltas. With
    max_iterations = 0 the initial scores come back unchanged and unconverged.

    The steps run in blocks of 1, 2, 4, ... steps, up to :func:`_block_cap`.
    Each step makes the product and the difference that a step-by-step loop
    makes; a block keeps its iterates and its differences and takes all its
    deltas with one reduction, so the iterations, deltas and scores are those
    of checking each step in turn, bit for bit. A block's iterates,
    differences and norms' scratch hold ``_BLOCK_SCORES`` scores each at most,
    or one step's n when a step alone holds more.
    """
    _check_square(s0, trust)
    damping = _check_damping(damping)
    n = len(s0)
    if n == 0:
        return PropagationResult(
            scores=ScoreVector(layer=s0.layer, kind=ScoreKind.SOCIAL,
                               entity_ids=s0.entity_ids, values=s0.values),
            iterations=0, converged=True)
    product = _row_order_product(trust)
    cap = min(_block_cap(trust), config.max_iterations)
    diffs = np.empty((cap, n))
    current = s0.values.astype(float)
    deltas: list[float] = []
    converged = False
    length = 1
    while not converged and len(deltas) < config.max_iterations:
        steps = min(length, config.max_iterations - len(deltas))
        iterates = []
        for j in range(steps):
            nxt = product(current)
            if damping != 1.0:
                nxt = damping * nxt + (1.0 - damping) * current
            np.subtract(nxt, current, diffs[j])
            iterates.append(current := nxt)
        block = config.delta(diffs[:steps]).tolist()
        for j, delta in enumerate(block):
            if delta <= config.epsilon:
                block, current, converged = block[:j + 1], iterates[j], True
                break
        deltas += block
        length = min(2 * length, cap)
    scores = ScoreVector(layer=s0.layer, kind=ScoreKind.SOCIAL,
                         entity_ids=s0.entity_ids, values=np.maximum(current, 0.0))
    return PropagationResult(scores=scores, iterations=len(deltas),
                             converged=converged, deltas=tuple(deltas))


def closed_form_score(s0: ScoreVector, trust: TrustMatrix, r: int,
                      damping: float = 1.0) -> ScoreVector:
    """Score after exactly r iterations, computed as s0 times the r-th matrix
    power (of the damped matrix when damping < 1)."""
    _check_square(s0, trust)
    damping = _check_damping(damping)
    if r < 0:
        raise ConfigError(f"iteration count must be >= 0, got {r}")
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
        raise ConfigError(
            f"department scores can be fed by hospital or doctor residuals, "
            f"not {getattr(department_feed, 'value', department_feed)!r}"
        )
    feeds = dict(DEFAULT_FEEDS)
    feeds[LayerId.DEPARTMENT] = department_feed
    out = {}
    for layer, feed_layer in feeds.items():
        own = residuals[layer]
        feed = residuals[feed_layer]
        s0 = initial_score(own, feed, trusts.inter[(feed_layer, layer)])
        out[layer] = LayerScores(residual=own, initial=s0,
                                 result=propagate(s0, trusts.intra[layer], config, damping))
    return out
