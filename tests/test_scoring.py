from __future__ import annotations

import numpy as np
import pytest

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
def test_products_sum_in_row_order_bit_for_bit(n, share):
    """One propagation step and one initial score equal the row-order loop exactly,
    whether the matrix is multiplied over its cells (below an eighth full) or its
    dense values, so the bits do not depend on how BLAS splits a product."""
    rng = np.random.default_rng(n)
    trust = trust_from(random_stochastic(rng, n, n, share))
    assert (trust.nonzero_count >= trust.values.size / 8) == (share > 1 / 8)
    s0 = scores_from(rng.random(n))
    step = propagate(s0, trust, ConvergenceConfig(max_iterations=1))
    assert np.array_equal(step.scores.values, row_order_loop(s0.values, trust.values))

    m = n // 2 + 7
    feed_trust = TrustMatrix(rows=D, cols=H, row_ids=tuple(f"d{i}" for i in range(m)),
                             col_ids=s0.entity_ids, values=random_stochastic(rng, m, n, share))
    feed = scores_from(rng.random(m), layer=D, kind=ScoreKind.RESIDUAL)
    own = scores_from(rng.random(n), kind=ScoreKind.RESIDUAL)
    initial = initial_score(own, feed, feed_trust)
    assert np.array_equal(initial.values,
                          own.values + row_order_loop(feed.values, feed_trust.values))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (5, 5)])
def test_products_without_cells_are_float_zeros(shape):
    """An empty or all-zero matrix multiplies to float64 zeros (np.bincount over no
    weights would give int64)."""
    n_rows, n_cols = shape
    trust = TrustMatrix(rows=D, cols=H, row_ids=tuple(f"d{i}" for i in range(n_rows)),
                        col_ids=tuple(f"h{i}" for i in range(n_cols)), values=np.zeros(shape))
    feed = scores_from(np.full(n_rows, 0.5), layer=D, kind=ScoreKind.RESIDUAL)
    product = _row_order_product(feed.values, trust)
    assert product.dtype == np.float64 and np.array_equal(product, np.zeros(n_cols))
    own = scores_from(np.full(n_cols, 0.25), kind=ScoreKind.RESIDUAL)
    assert np.array_equal(initial_score(own, feed, trust).values, own.values)
    if n_rows == n_cols:
        step = propagate(scores_from(feed.values), trust_from(np.zeros(shape)),
                         ConvergenceConfig(max_iterations=1))
        assert step.scores.values.dtype == np.float64
        assert np.array_equal(step.scores.values, np.zeros(n_cols))


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
