from __future__ import annotations

import warnings

import numpy as np
import pytest

from trustprop import AdjacencyBlock, LayerId, derive_reverse_trust, derive_trust
from trustprop.errors import InputError
from trustprop.stress import export_edge_table


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
