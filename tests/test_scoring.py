from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_builder import random_store
from trustprop import (
    ConvergenceConfig,
    DeltaNorm,
    LayerId,
    ResidualConfig,
    ScoreVector,
    TrustMatrix,
    build_network,
    closed_form_score,
    derive_network_trust,
    generate_residual,
    initial_score,
    propagate,
    score_network,
)
from trustprop.builder import SimilarityMode
from trustprop.errors import ConfigError, InputError
from trustprop import scoring
from trustprop.model import ScoreKind
from trustprop.scoring import _row_order_product

H = LayerId.HOSPITAL
D = LayerId.DEPARTMENT


def trust_from(values, layer=H):
    values = np.asarray(values, dtype=float)
    ids = tuple(f"{layer.tag}{i}" for i in range(values.shape[0]))
    return TrustMatrix(rows=layer, cols=layer, row_ids=ids, col_ids=ids, values=values)


def scores_from(values, layer=H, kind=ScoreKind.INITIAL):
    values = np.asarray(values, dtype=float)
    ids = tuple(f"{layer.tag}{i}" for i in range(len(values)))
    return ScoreVector(layer=layer, kind=kind, entity_ids=ids, values=values)


# --- residual generation ---

def test_constant_residual():
    vec = generate_residual(ResidualConfig.constant(0.2), 4, H)
    assert vec.values.tolist() == [0.2, 0.2, 0.2, 0.2]
    assert vec.entity_ids == ("h0", "h1", "h2", "h3")


def test_residual_determinism_bit_identical():
    config = ResidualConfig.uniform(0.0, 1.0, seed=99)
    a = generate_residual(config, 50, D)
    b = generate_residual(config, 50, D)
    assert (a.values == b.values).all()
    c = generate_residual(ResidualConfig.uniform(0.0, 1.0, seed=100), 50, D)
    assert (a.values != c.values).any()


def test_uniform_residual_within_bounds():
    vec = generate_residual(ResidualConfig.uniform(0.25, 0.5, seed=3), 1000, H)
    assert (vec.values >= 0.25).all() and (vec.values < 0.5).all()


def test_normal_residual_clipped_to_unit_interval():
    vec = generate_residual(ResidualConfig.normal(0.5, 5.0, seed=4), 2000, H)
    assert (vec.values >= 0.0).all() and (vec.values <= 1.0).all()
    assert (vec.values == 0.0).any() and (vec.values == 1.0).any()  # clipping engaged


def test_skewed_residual_mean():
    vec = generate_residual(ResidualConfig.skewed(2.0, 8.0, seed=5), 10000, H)
    assert vec.values.mean() == pytest.approx(2.0 / (2.0 + 8.0), abs=0.01)
    assert (vec.values >= 0.0).all() and (vec.values <= 1.0).all()


BAD_RESIDUALS = [
    ({"distribution": "uniform", "low": 0.9, "high": 0.1},
     "uniform residual needs 0 <= low <= high"),
    ({"distribution": "normal", "stdev": -1.0}, "normal residual needs stdev > 0"),
    ({"distribution": "skewed", "alpha": 0.0}, "skewed residual needs alpha > 0 and beta > 0"),
    ({"distribution": "constant", "value": -0.5}, r"constant residual must lie in \[0, 1\]"),
    ({"distribution": "nosuch"}, "unknown residual distribution 'nosuch'"),
    ({"distribution": "constant", "value": 0.2, "stray": 1},
     r"unknown constant residual key\(s\): stray"),
    ({"distribution": "uniform", "value": 0.9}, r"unknown uniform residual key\(s\): value"),
    ({"distribution": "constant", "value": 0.2, "alpha": 3.0},
     r"unknown constant residual key\(s\): alpha"),
]


@pytest.mark.parametrize("mapping, fragment", BAD_RESIDUALS,
                         ids=[f"mapping{i}" for i in range(len(BAD_RESIDUALS))])
def test_bad_residual_configs_rejected(mapping, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ResidualConfig.from_mapping(mapping)


def test_from_mapping_applies_default_seed():
    config = ResidualConfig.from_mapping({"distribution": "uniform"}, default_seed=77)
    assert config.seed == 77
    explicit = ResidualConfig.from_mapping({"distribution": "uniform", "seed": 5}, default_seed=77)
    assert explicit.seed == 5


# --- initial score ---

def test_initial_score_adds_fed_residuals():
    own = scores_from([0.2, 0.2], layer=H, kind=ScoreKind.RESIDUAL)
    feed = scores_from([0.4, 0.6, 0.0], layer=D, kind=ScoreKind.RESIDUAL)
    trust = TrustMatrix(rows=D, cols=H, row_ids=("d0", "d1", "d2"), col_ids=("h0", "h1"),
                        values=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    s0 = initial_score(own, feed, trust)
    assert s0.values == pytest.approx([0.2 + 0.4 + 0.3, 0.2 + 0.3])
    assert s0.kind is ScoreKind.INITIAL


def test_initial_score_rejects_wrong_orientation():
    own = scores_from([0.2, 0.2], layer=H, kind=ScoreKind.RESIDUAL)
    feed = scores_from([0.4, 0.6], layer=D, kind=ScoreKind.RESIDUAL)
    wrong = TrustMatrix(rows=H, cols=D, row_ids=("h0", "h1"), col_ids=("d0", "d1"),
                        values=np.eye(2))
    with pytest.raises(InputError, match="feed trust is hospital->department, but residuals are "
                                          "department feeding hospital"):
        initial_score(own, feed, wrong)
    trust = TrustMatrix(rows=D, cols=H, row_ids=("d0", "d1"), col_ids=("h0", "h1"),
                        values=np.eye(2))
    reversed_feed = ScoreVector(layer=D, kind=ScoreKind.RESIDUAL, entity_ids=("d1", "d0"),
                                values=feed.values)
    renamed_own = ScoreVector(layer=H, kind=ScoreKind.RESIDUAL, entity_ids=("H1", "H2"),
                              values=own.values)
    for own_scores, feed_scores in ((own, reversed_feed), (renamed_own, feed)):
        with pytest.raises(InputError, match="feed trust dh is not indexed by"):
            initial_score(own_scores, feed_scores, trust)


# --- propagation ---

def test_fixed_point_converges_in_one_iteration():
    # uniform scores over a doubly stochastic matrix are stationary
    trust = trust_from([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    result = propagate(scores_from([1.0, 1.0, 1.0]), trust)
    assert result.converged and result.iterations == 1
    assert result.deltas[0] == 0.0


def test_zero_matrix_converges_within_two_iterations():
    result = propagate(scores_from([0.3, 0.7]), trust_from(np.zeros((2, 2))))
    assert result.converged and result.iterations <= 2
    assert result.scores.values.tolist() == [0.0, 0.0]


def test_huge_epsilon_stops_after_one_iteration():
    trust = trust_from([[0.0, 1.0], [1.0, 0.0]])
    config = ConvergenceConfig(epsilon=1e9, max_iterations=1000)
    result = propagate(scores_from([0.1, 0.9]), trust, config)
    assert result.converged and result.iterations == 1


def test_zero_max_iterations_returns_initial_unconverged():
    trust = trust_from([[0.0, 1.0], [1.0, 0.0]])
    config = ConvergenceConfig(epsilon=0.001, max_iterations=0)
    result = propagate(scores_from([0.1, 0.9]), trust, config)
    assert not result.converged and result.iterations == 0
    assert result.scores.values.tolist() == [0.1, 0.9]
    assert result.deltas == ()


def test_two_cycle_oscillates_and_hits_cap():
    trust = trust_from([[0.0, 1.0], [1.0, 0.0]])
    config = ConvergenceConfig(epsilon=0.001, max_iterations=25)
    result = propagate(scores_from([0.1, 0.9]), trust, config)
    assert not result.converged and result.iterations == 25
    assert result.deltas[-1] == pytest.approx(0.8)


def test_damping_breaks_the_two_cycle():
    trust = trust_from([[0.0, 1.0], [1.0, 0.0]])
    result = propagate(scores_from([0.1, 0.9]), trust,
                       ConvergenceConfig(epsilon=0.001, max_iterations=1000), damping=0.5)
    assert result.converged
    assert result.scores.values == pytest.approx([0.5, 0.5], abs=0.01)


def test_propagation_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        weights = rng.random((n, n))
        weights[rng.random((n, n)) < 0.3] = 0.0
        sums = weights.sum(axis=1, keepdims=True)
        values = np.divide(weights, sums, out=np.zeros_like(weights), where=sums > 0)
        trust = trust_from(values)
        s0 = scores_from(rng.random(n))
        damping = float(rng.uniform(0.5, 1.0))
        config = ConvergenceConfig(epsilon=1e-15, max_iterations=int(rng.integers(1, 12)))
        result = propagate(s0, trust, config, damping=damping)
        direct = closed_form_score(s0, trust, result.iterations, damping=damping)
        assert result.scores.values == pytest.approx(direct.values.tolist(), abs=1e-9)


def test_mass_conserved_when_rows_fully_stochastic():
    rng = np.random.default_rng(21)
    weights = rng.random((6, 6))
    np.fill_diagonal(weights, 0.0)
    values = weights / weights.sum(axis=1, keepdims=True)
    s0 = scores_from(rng.random(6), layer=D)
    result = propagate(s0, trust_from(values, layer=D),
                       ConvergenceConfig(epsilon=1e-12, max_iterations=200))
    assert result.scores.values.sum() == pytest.approx(s0.values.sum(), abs=1e-9)


def test_l1_norm_differs_from_max_abs():
    config = ConvergenceConfig(norm=DeltaNorm.L1)
    assert config.delta(np.array([0.5, -0.5])) == 1.0
    assert ConvergenceConfig().delta(np.array([0.5, -0.5])) == 0.5


def test_invalid_convergence_and_damping_rejected():
    with pytest.raises(ConfigError, match="epsilon must be a positive number, got 0.0"):
        ConvergenceConfig(epsilon=0.0)
    with pytest.raises(ConfigError, match="max_iterations must be an integer >= 0, got -1"):
        ConvergenceConfig(max_iterations=-1)
    trust = trust_from(np.zeros((1, 1)))
    with pytest.raises(ConfigError, match=r"damping must be a number in \(0, 1\], got 0.0"):
        propagate(scores_from([0.1]), trust, damping=0.0)
    with pytest.raises(ConfigError, match=r"damping must be a number in \(0, 1\], got 1.5"):
        propagate(scores_from([0.1]), trust, damping=1.5)
    with pytest.raises(ConfigError, match=r"damping must be a number in \(0, 1\], got True"):
        propagate(scores_from([0.1]), trust, damping=True)


def test_propagation_rejects_scores_not_aligned_with_trust():
    trust = trust_from([[0.0, 1.0], [1.0, 0.0]])
    reversed_ids = ScoreVector(layer=H, kind=ScoreKind.INITIAL, entity_ids=("h1", "h0"),
                               values=np.array([0.1, 0.9]))
    for s0 in (reversed_ids, scores_from([0.1, 0.9, 0.0])):
        with pytest.raises(InputError, match="h trust is not indexed by the hospital scores"):
            propagate(s0, trust)
        with pytest.raises(InputError, match="h trust is not indexed by the hospital scores"):
            closed_form_score(s0, trust, 2)


def test_empty_layer_propagates_trivially():
    trust = TrustMatrix(rows=H, cols=H, row_ids=(), col_ids=(), values=np.zeros((0, 0)))
    s0 = ScoreVector(layer=H, kind=ScoreKind.INITIAL, entity_ids=(), values=np.zeros(0))
    result = propagate(s0, trust)
    assert result.converged and result.iterations == 0


# --- row-order products ---

def row_order_loop(vector, values):
    """The reference product: acc = acc + vector[i] * T[i], one row after another."""
    acc = np.zeros(values.shape[1])
    for i in range(values.shape[0]):
        acc = acc + vector[i] * values[i]
    return acc


def random_stochastic(rng, n_rows, n_cols, share):
    """Row-stochastic values with about ``share`` of the cells nonzero; empty rows stay zero."""
    weights = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < share)
    sums = weights.sum(axis=1, keepdims=True)
    return np.divide(weights, sums, out=np.zeros_like(weights), where=sums > 0)


@pytest.mark.parametrize("n", [40, 120, 300])
@pytest.mark.parametrize("share", [0.06, 0.5])
@pytest.mark.parametrize("variant", ["plain", "empty_rows", "tall_feed"])
def test_products_sum_in_row_order_bit_for_bit(n, share, variant):
    """One propagation step and one initial score equal the row-order loop exactly,
    whether a score is gathered per cell (below an eighth full) or repeated over its
    row's cells, so the bits do not depend on how BLAS splits a product. The variants
    add rows without cells to every matrix, or feed through an inter matrix with more
    rows than columns rather than fewer."""
    rng = np.random.default_rng(n)

    def stochastic(n_rows, n_cols):
        values = random_stochastic(rng, n_rows, n_cols, share)
        if variant == "empty_rows":
            values[::3] = 0.0
        return values

    trust = trust_from(stochastic(n, n))
    assert (trust.nonzero_count >= trust.values.size / 8) == (share > 1 / 8)
    s0 = scores_from(rng.random(n))
    step = propagate(s0, trust, ConvergenceConfig(max_iterations=1))
    assert np.array_equal(step.scores.values, row_order_loop(s0.values, trust.values))

    m = 2 * n + 7 if variant == "tall_feed" else n // 2 + 7
    feed_trust = TrustMatrix(rows=D, cols=H, row_ids=tuple(f"d{i}" for i in range(m)),
                             col_ids=s0.entity_ids, values=stochastic(m, n))
    assert scoring._is_dense(feed_trust) == scoring._is_dense(trust) == (share > 1 / 8)
    if variant == "empty_rows":
        assert not np.isin(np.arange(m), feed_trust.cells[0]).all()
    feed = scores_from(rng.random(m), layer=D, kind=ScoreKind.RESIDUAL)
    own = scores_from(rng.random(n), kind=ScoreKind.RESIDUAL)
    initial = initial_score(own, feed, feed_trust)
    assert np.array_equal(initial.values,
                          own.values + row_order_loop(feed.values, feed_trust.values))


@pytest.mark.parametrize("share", [0.0, 0.06, 0.5])
def test_each_product_is_a_new_array(share):
    """A product never hands back an array that it returns again or writes later:
    propagation keeps a block's iterates, and a reused buffer would overwrite them."""
    rng = np.random.default_rng(3)
    trust = trust_from(random_stochastic(rng, 50, 50, share))
    product = _row_order_product(trust)
    first = product(rng.random(50))
    kept = first.copy()
    second = product(rng.random(50))
    assert not np.shares_memory(first, second) and np.array_equal(first, kept)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (5, 5)])
def test_products_without_cells_are_float_zeros(shape):
    """An empty or all-zero matrix multiplies to float64 zeros (np.bincount over no
    weights would give int64)."""
    n_rows, n_cols = shape
    trust = TrustMatrix(rows=D, cols=H, row_ids=tuple(f"d{i}" for i in range(n_rows)),
                        col_ids=tuple(f"h{i}" for i in range(n_cols)), values=np.zeros(shape))
    feed = scores_from(np.full(n_rows, 0.5), layer=D, kind=ScoreKind.RESIDUAL)
    product = _row_order_product(trust)(feed.values)
    assert product.dtype == np.float64 and np.array_equal(product, np.zeros(n_cols))
    own = scores_from(np.full(n_cols, 0.25), kind=ScoreKind.RESIDUAL)
    assert np.array_equal(initial_score(own, feed, trust).values, own.values)
    if n_rows == n_cols:
        step = propagate(scores_from(feed.values), trust_from(np.zeros(shape)),
                         ConvergenceConfig(max_iterations=1))
        assert step.scores.values.dtype == np.float64
        assert np.array_equal(step.scores.values, np.zeros(n_cols))


# --- blocked propagation against the step-by-step loop ---

def step_by_step(s0, trust, config, damping=1.0):
    """The propagation loop before blocks, the oracle of :func:`propagate`: one
    product, one delta and one check per step. Returns the scores, the deltas and
    whether the last delta was at most epsilon."""
    product = _row_order_product(trust)
    current = s0.values.astype(float)
    deltas = []
    for _ in range(config.max_iterations):
        nxt = product(current)
        if damping != 1.0:
            nxt = damping * nxt + (1.0 - damping) * current
        diff = np.abs(nxt - current)
        delta = float(diff.max()) if config.norm is DeltaNorm.MAX_ABS else float(diff.sum())
        deltas.append(delta)
        current = nxt
        if delta <= config.epsilon:
            return np.maximum(current, 0.0), deltas, True
    return np.maximum(current, 0.0), deltas, False


def assert_matches_step_by_step(s0, trust, config, damping=1.0):
    scores, deltas, converged = step_by_step(s0, trust, config, damping)
    result = propagate(s0, trust, config, damping)
    assert result.scores.values.tobytes() == scores.tobytes()
    assert np.array(result.deltas).tobytes() == np.array(deltas).tobytes()
    assert (result.iterations, result.converged) == (len(deltas), converged)
    return deltas


def two_cycles(n, cycles=None):
    """A period-2 matrix: node 2i trusts node 2i + 1 and back, for the first
    ``cycles`` pairs (all of them by default); the other nodes have no cells."""
    cycles = n // 2 if cycles is None else cycles
    rows = np.arange(2 * cycles)
    ids = tuple(f"h{i}" for i in range(n))
    return TrustMatrix(rows=H, cols=H, row_ids=ids, col_ids=ids,
                       cells=(rows, rows ^ 1, np.ones(2 * cycles)))


def block_ends(cap, total):
    """The step counts at which propagate ends a block: after 1, 2, 4, ... steps,
    each block at most ``cap`` long."""
    ends, length = [], 1
    while not ends or ends[-1] < total:
        ends.append(min(ends[-1] + length if ends else length, total))
        length = min(2 * length, cap)
    return ends


@st.composite
def propagation_cases(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["stochastic", "two_cycles", "no_cells"]))
    if kind == "stochastic":
        values = random_stochastic(rng, n, n, draw(st.sampled_from([0.04, 0.1, 0.3, 1.0])))
        trust = trust_from(values)
    elif kind == "two_cycles":
        trust = two_cycles(n, draw(st.integers(0, n // 2)))
    else:
        trust = trust_from(np.zeros((n, n)))
    s0 = rng.random(n) * draw(st.sampled_from([1.0, 1e-6, 1e6]))
    if draw(st.booleans()):
        s0[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    damping = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 0.99))
    norm = draw(st.sampled_from(list(DeltaNorm)))
    max_iterations = draw(st.integers(0, 70) | st.just(1000))
    # blocks as long as the default allows, or of at most 1, 2, 3 or 5 steps
    block_scores = draw(st.sampled_from([scoring._BLOCK_SCORES, n, 2 * n, 3 * n, 5 * n]))
    return trust, s0, damping, norm, max_iterations, block_scores, draw(st.data())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(propagation_cases())
def test_blocked_propagation_matches_step_by_step_bit_for_bit(case):
    """Scores, deltas, iterations and convergence equal the step-by-step loop's,
    on both product routes, with and without damping, under both norms, with
    epsilon at each of the oracle's deltas, so that the first delta at or below it
    falls at every offset of a block. An s0 holding NaN or inf is refused."""
    trust, s0, damping, norm, max_iterations, block_scores, data = case
    if not np.isfinite(s0).all():
        with pytest.raises(InputError, match="non-finite entry"):
            scores_from(s0)
        return
    s0 = scores_from(s0)
    with mock.patch.object(scoring, "_BLOCK_SCORES", block_scores):
        never = ConvergenceConfig(epsilon=5e-324, max_iterations=max_iterations, norm=norm)
        deltas = assert_matches_step_by_step(s0, trust, never, damping)
        reachable = [d for d in deltas if 0 < d < math.inf]
        if reachable:
            epsilon = data.draw(st.sampled_from(reachable))
            config = ConvergenceConfig(epsilon=epsilon, max_iterations=max_iterations, norm=norm)
            assert_matches_step_by_step(s0, trust, config, damping)


@pytest.mark.parametrize("block_scores", [20, 60, scoring._BLOCK_SCORES])
@pytest.mark.parametrize("norm", list(DeltaNorm))
def test_blocked_propagation_matches_at_every_block_end(block_scores, norm):
    """Caps at each block end and one step either side of it, and a convergence
    at each of the first 70 steps, on a period-2 matrix (which never converges)
    and on a sparse stochastic one: blocks of at most 1, 3 and 819 steps on 20
    nodes."""
    n = 20
    rng = np.random.default_rng(block_scores)
    s0 = scores_from(rng.random(n))
    settling = trust_from(random_stochastic(rng, n, n, 0.1))
    assert not scoring._is_dense(settling) and not scoring._is_dense(two_cycles(n))
    with mock.patch.object(scoring, "_BLOCK_SCORES", block_scores):
        cap = scoring._block_cap(settling)
        assert cap == max(1, block_scores // n)
        caps = sorted({c + d for c in block_ends(cap, 1000) for d in (-1, 0, 1)} - {-1})
        for max_iterations in caps[:40] + [1000]:
            for trust in (two_cycles(n), settling):
                config = ConvergenceConfig(epsilon=5e-324, max_iterations=max_iterations,
                                           norm=norm)
                assert_matches_step_by_step(s0, trust, config)
        deltas = step_by_step(s0, settling, ConvergenceConfig(epsilon=1e-15, norm=norm))[1]
        for epsilon in deltas[:70]:
            assert_matches_step_by_step(s0, settling, ConvergenceConfig(epsilon=epsilon, norm=norm))


@pytest.mark.parametrize("values, s0", [
    ([[0.0]], [0.3]), ([[1.0]], [0.3]), ([[1.0]], [np.inf]), ([[0.0]], [np.nan]),
    (np.zeros((5, 5)), [0.1, 0.2, np.nan, 0.4, 0.5]),
    (np.zeros((5, 5)), [0.1, 0.2, 0.3, 0.4, np.inf]),
])
@pytest.mark.parametrize("norm", list(DeltaNorm))
def test_blocked_propagation_matches_on_one_node_and_without_cells(values, s0, norm):
    """One node on either route, and matrices with no cells; an s0 holding NaN or inf is
    refused."""
    if not np.isfinite(s0).all():
        with pytest.raises(InputError, match="non-finite entry"):
            scores_from(s0)
        return
    for max_iterations in (0, 1, 2, 3, 1000):
        for damping in (1.0, 0.5):
            config = ConvergenceConfig(max_iterations=max_iterations, norm=norm)
            assert_matches_step_by_step(scores_from(s0), trust_from(values), config, damping)


def test_block_cap_is_one_step_where_a_step_costs_its_cells():
    """One step per block on the dense route and from _BLOCK_CELLS cells; otherwise
    as many steps as _BLOCK_SCORES scores hold, and at least one."""
    assert scoring._block_cap(trust_from([[0.0, 1.0], [1.0, 0.0]])) == 1
    assert scoring._block_cap(two_cycles(300)) == scoring._BLOCK_SCORES // 300
    assert scoring._block_cap(two_cycles(scoring._BLOCK_SCORES + 2, 8)) == 1
    assert scoring._block_cap(two_cycles(20_000, scoring._BLOCK_CELLS // 2)) == 1


def test_a_thousand_steps_on_twenty_thousand_nodes_stay_in_the_block_bound():
    """The tracemalloc peak of 1 000 unconverged steps on a 20 000-node period-2
    matrix stays within the documented bound: a block's iterates, differences and
    norms hold at most _BLOCK_SCORES scores each, or one step's n, and a step adds
    its product's temporaries (two arrays of its cells and the n-long result).
    Blocks of 64 steps would hold 30 MB."""
    n = 20_000
    trust = two_cycles(n, 1_000)
    cells = trust.nonzero_count
    s0 = scores_from(np.random.default_rng(5).random(n))
    tracemalloc.start()
    try:
        result = propagate(s0, trust, ConvergenceConfig(epsilon=1e-9, max_iterations=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.converged and result.iterations == 1000
    block = 3 * max(scoring._BLOCK_SCORES, n)
    step = 2 * cells + n
    # s0's float copy, the previous and the next iterate, the clipped scores; and
    # the 1 000 deltas as floats in a list and a tuple
    assert peak <= 8 * (block + step + 4 * n) + 1000 * (24 + 8 + 8) + 4096, peak


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 8192, 8193, 20_000])
def test_row_reductions_equal_one_dimensional_ones_bit_for_bit(n):
    """A block's deltas rely on numpy reducing each row of a C-contiguous (k, n)
    array as it reduces the row alone: max is exact, and the sum of a row is the
    same pairwise sum as the 1-D sum, not a column-wise accumulation."""
    rng = np.random.default_rng(n)
    for k in (1, 2, 3, 17, 64) if n <= 8192 else (1, 2, 3):
        block = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8, 8, (k, n))
        assert block.flags.c_contiguous
        for axis_reduce, one_d in ((np.ndarray.sum, lambda row: row.sum()),
                                   (np.ndarray.max, lambda row: row.max())):
            rows = axis_reduce(block, axis=1)
            assert rows.tobytes() == np.array([one_d(row) for row in block]).tobytes()
        absolute = np.abs(block)
        assert ConvergenceConfig(norm=DeltaNorm.MAX_ABS).delta(block).tolist() == [
            float(row.max()) for row in absolute]
        assert ConvergenceConfig(norm=DeltaNorm.L1).delta(block).tolist() == [
            float(row.sum()) for row in absolute]


# --- whole-network scoring ---

def demo_residuals(network):
    return {
        layer: generate_residual(ResidualConfig.constant(0.2), len(network.node_ids(layer)),
                                 layer, network.node_ids(layer))
        for layer in LayerId
    }


def test_score_network_hospital_initial_oracle(demo_network, demo_trust):
    scored = score_network(demo_trust, demo_residuals(demo_network))
    hospital_initial = scored[LayerId.HOSPITAL].initial.values
    assert hospital_initial == pytest.approx([8 / 15, 11 / 30, 7 / 15, 7 / 30], abs=1e-12)


def test_score_network_department_feed_choice(demo_network, demo_trust):
    via_hospital = score_network(demo_trust, demo_residuals(demo_network))
    via_doctor = score_network(demo_trust, demo_residuals(demo_network),
                               department_feed=LayerId.DOCTOR)
    a = via_hospital[LayerId.DEPARTMENT].initial.values
    b = via_doctor[LayerId.DEPARTMENT].initial.values
    assert (a != b).any()
    # hospital and doctor layers always feed from departments, unchanged
    assert (via_hospital[LayerId.HOSPITAL].initial.values
            == via_doctor[LayerId.HOSPITAL].initial.values).all()
    with pytest.raises(ConfigError, match="department scores can be fed by hospital or doctor "
                                           "residuals, not 'department'"):
        score_network(demo_trust, demo_residuals(demo_network),
                      department_feed=LayerId.DEPARTMENT)


def test_score_network_department_layer_oscillates(demo_network, demo_trust):
    scored = score_network(demo_trust, demo_residuals(demo_network),
                           ConvergenceConfig(epsilon=0.001, max_iterations=50))
    dept = scored[LayerId.DEPARTMENT].result
    assert not dept.converged and dept.iterations == 50
    assert scored[LayerId.HOSPITAL].result.converged
    assert scored[LayerId.DOCTOR].result.converged


# --- propagation limit ---

def _components(weights):
    """Connected components of a symmetric weight matrix, each found by its own BFS."""
    unseen = set(range(len(weights)))
    while unseen:
        frontier = [unseen.pop()]
        component = list(frontier)
        while frontier:
            node = frontier.pop()
            for other in np.flatnonzero(weights[node] > 0).tolist():
                if other in unseen:
                    unseen.remove(other)
                    frontier.append(other)
                    component.append(other)
        yield np.array(component)


def test_propagation_limit_spreads_each_component_mass_by_degree(demo_store):
    """The damped iteration settles at d_j * m(C) / vol(C): a component's mass
    m(C), shared in proportion to weighted degree d_j (vol(C) is the sum of
    d over C); an isolated node ends at 0."""
    from test_builder import random_store
    from trustprop import build_network, derive_network_trust
    from trustprop.builder import SimilarityMode

    rng = np.random.default_rng(23)
    stores = [demo_store] + [
        random_store(rng, n_hospitals=int(rng.integers(1, 8)),
                     n_departments=int(rng.integers(1, 9)), n_doctors=int(rng.integers(1, 12)))
        for _ in range(100)]
    config = ConvergenceConfig(epsilon=1e-13, max_iterations=100000)
    for store in stores:
        for mode in SimilarityMode:
            network = build_network(store, mode)
            trusts = derive_network_trust(network)
            for layer in LayerId:
                weights = network.intra[layer].weights
                ids = network.node_ids(layer)
                s0 = ScoreVector(layer=layer, kind=ScoreKind.INITIAL, entity_ids=ids,
                                 values=rng.random(len(ids)))
                result = propagate(s0, trusts.intra[layer], config, damping=0.85)
                assert result.converged, (mode, layer)
                degree = weights.sum(axis=1)
                want = np.zeros(len(ids))
                for component in _components(weights):
                    volume = degree[component].sum()
                    if volume > 0:
                        want[component] = (degree[component] * s0.values[component].sum()
                                           / volume)
                assert np.abs(result.scores.values - want).max(initial=0.0) <= 1e-9, (mode, layer)
