from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop import (AdjacencyBlock, LayerId, build_network, derive_network_trust,
                       derive_reverse_trust, derive_trust, validate_network)
from trustprop.errors import InputError
from trustprop.model import nonzero_cells
from trustprop.scoring import ConvergenceConfig
from trustprop.stress import export_edge_table

from test_model import sequential_sums
from test_stress import demo_scores, sparse_store


def block_from(weights, rows=LayerId.HOSPITAL, cols=LayerId.DEPARTMENT):
    weights = np.asarray(weights, dtype=float)
    row_ids = tuple(f"{rows.tag}{i}" for i in range(weights.shape[0]))
    col_ids = tuple(f"{cols.tag}{j}" for j in range(weights.shape[1]))
    if rows is cols:
        col_ids = row_ids
    return AdjacencyBlock(rows=rows, cols=cols, row_ids=row_ids, col_ids=col_ids,
                          weights=weights)


def test_rows_normalize_to_one_or_stay_zero():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n, m = rng.integers(1, 12, size=2)
        weights = rng.random((n, m)) * (rng.random((n, m)) < 0.5)
        trust = derive_trust(block_from(weights))
        sums = trust.values.sum(axis=1)
        for i in range(n):
            if weights[i].sum() > 0:
                assert sums[i] == pytest.approx(1.0, abs=1e-9)
            else:
                assert (trust.values[i] == 0).all()
        # support is preserved cell for cell
        assert ((trust.values > 0) == (weights > 0)).all()


def test_row_scale_invariance():
    weights = np.array([[2.0, 6.0, 2.0], [1.0, 0.0, 3.0]])
    scaled = weights * np.array([[7.0], [0.25]])
    a = derive_trust(block_from(weights)).values
    b = derive_trust(block_from(scaled)).values
    assert np.allclose(a, b, atol=1e-15)


def test_reverse_trust_is_normalized_transpose():
    weights = np.array([[2.0, 0.0], [1.0, 3.0], [0.0, 0.0]])
    block = block_from(weights)
    reverse = derive_reverse_trust(block)
    assert reverse.rows is LayerId.DEPARTMENT and reverse.cols is LayerId.HOSPITAL
    expected = np.array([[2 / 3, 1 / 3, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(reverse.values, expected, atol=1e-15)
    assert reverse.row_ids == block.col_ids
    assert reverse.col_ids == block.row_ids


def test_reverse_trust_sums_over_the_transposed_view():
    """Bit for bit the normalisation of the strided ``weights.T``: a row sum over a
    C-order copy of the transpose runs in another order and differs in the last bit."""
    rng = np.random.default_rng(29)
    for n, m in [(300, 50), (400, 60), (512, 37)]:
        weights = rng.random((n, m)) * (rng.random((n, m)) < 0.5)
        weights[:, 0] = 0.0  # a department with no members keeps an all-zero row
        reverse = derive_reverse_trust(block_from(weights))
        sums = weights.T.sum(axis=1, keepdims=True)
        expected = np.divide(weights.T, sums, out=np.zeros(weights.T.shape), where=sums > 0)
        assert reverse.values.tobytes() == expected.tobytes()


def dense_trust(weights: np.ndarray) -> np.ndarray:
    """The dense derivation, kept as the oracle: each row divided by its sum into a
    zero-filled array, rows whose sum is not positive left at zero. A row's sum adds its
    cells one after another, not pairwise as ``weights.sum(axis=1)`` does."""
    sums = sequential_sums(weights, 1)[:, None]
    return np.divide(weights, sums, out=np.zeros(weights.shape), where=sums > 0)


#: fractional Jaccard-like weights and counts, with zeros common enough for all-zero rows;
#: the negative cells give rows of positive and of negative sum, and 5e-324 next to 4.0
#: divides to 0. No -0.0: a block's cells leave out zeros of either sign.
WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 3.0, 4.0, 5e-324, -1.0]),
                    st.integers(1, 12).flatmap(lambda d: st.integers(1, d).map(lambda k: k / d)))


@st.composite
def blocks(draw):
    # rows of 8 cells or more, where numpy's pairwise sum and a sum one cell after another
    # can differ
    n, m = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    return np.array(draw(st.lists(st.lists(WEIGHTS, min_size=m, max_size=m),
                                  min_size=n, max_size=n)), dtype=float).reshape(n, m)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(blocks())
@example(np.array([[1 / 3, 2 / 3, 0.0], [0.0, 0.0, 0.0], [0.5, 0.25, 0.2]]))
@example(np.array([[3.0, -1.0], [0.0, 0.0]]))
@example(np.array([[5e-324, 4.0]]))
@example(np.array([[1.0, -1.0, 5e-324]]))
@example(np.zeros((0, 3)))
@example(np.array([[k / 7 for k in range(1, 21)], [1 / 3] * 20]))
def test_cells_divide_to_the_dense_derivations_bits(weights):
    """Forward and reverse trust, divided over the block's cells, hold the bytes of the
    dense divide by sums added in row-major order, and their cells are that array's
    nonzero cells, row-major."""
    block = block_from(weights)
    # a negative cell can cancel a row down to 5e-324, and dividing by that overflows to inf
    # in both derivations alike
    with np.errstate(over="ignore"):
        pairs = ((derive_trust(block), dense_trust(weights)),
                 (derive_reverse_trust(block), dense_trust(weights.T)))
    for trust, expected in pairs:
        assert trust.values.tobytes() == expected.tobytes()
        for cached, fresh in zip(trust.cells, nonzero_cells(expected)):
            assert cached.tobytes() == fresh.tobytes()
        assert trust.nonzero_count == np.count_nonzero(expected)


def test_scoring_a_sparse_network_builds_no_dense_trust():
    """Derived trust stays its cells through scoring where every matrix is less than an
    eighth full: the peak stays under a quarter of the seven dense matrices' bytes."""
    network = build_network(sparse_store(1200, n_hospitals=200))
    tracemalloc.start()
    try:
        trusts = derive_network_trust(network)
        demo_scores(network, trusts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrices = trusts.all_matrices()
    assert all(m.nonzero_count < math.prod(m.shape) / 8 for m in matrices)
    assert [m.tag for m in matrices if "values" in vars(m)] == []
    assert peak <= sum(8 * math.prod(m.shape) for m in matrices) / 4


def traced_peak(n_doctors: int) -> int:
    """Peak traced bytes of build, validate, derive and 20 iterations of scoring, on a
    store where each hospital has 6 doctors and each department 3."""
    store = sparse_store(n_doctors, n_hospitals=n_doctors // 6)
    tracemalloc.start()
    try:
        network = build_network(store)
        assert validate_network(network) == []
        trusts = derive_network_trust(network)
        demo_scores(network, trusts, config=ConvergenceConfig(1e-300, max_iterations=20))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_the_cells_not_with_n_squared():
    """Four times the entities, with as many memberships each, is four times the cells:
    the traced peak may grow 6x, where n x n blocks and trust would grow it 16x."""
    assert traced_peak(4800) / traced_peak(1200) <= 6


def test_reverse_trust_rejects_intra_blocks():
    block = block_from(np.zeros((2, 2)), rows=LayerId.DOCTOR, cols=LayerId.DOCTOR)
    with pytest.raises(InputError,
                       match="reverse trust needs an inter-layer block, got intra-layer doctor"):
        derive_reverse_trust(block)


def test_row_sum_past_the_float_range_is_an_input_error():
    # the sums overflow to inf, which would divide each row to zeros
    weights = np.array([[1e308, 1e308, 0.0], [1.0, 1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="hd trust: the weights of h0 sum past the float"):
            derive_trust(block_from(weights))
        with pytest.raises(InputError, match="dh trust: the weights of d1 sum past the float"):
            derive_reverse_trust(block_from(weights))
        # one huge weight alone still normalizes
        assert derive_trust(block_from(weights[:, 1:])).values.tolist() == [[1.0, 0.0],
                                                                             [1.0, 0.0]]


def test_demo_trust_matrices_are_sound(demo_trust):
    for matrix in demo_trust.all_matrices():
        assert matrix.violations() == [], matrix.tag


def test_all_matrices_order(demo_trust):
    tags = [m.tag for m in demo_trust.all_matrices()]
    # intra in layer order, then inter sorted by (row layer, col layer) names
    assert tags == ["h", "d", "p", "dp", "dh", "pd", "hd"]


def test_nonzero_values_row_major():
    trust = derive_trust(block_from(np.array([[0.0, 2.0], [3.0, 1.0]])))
    assert export_edge_table([trust]).trust.tolist() == [1.0, 0.75, 0.25]
