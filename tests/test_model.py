from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import (AdjacencyBlock, LayerId, MultiLayerNetwork, ScoreVector, TrustMatrix,
                       validate_network)
from trustprop.errors import InputError
from trustprop.model import INTER_LAYER_PAIRS, LAYERS, ScoreKind, from_cells


def test_layer_ids_and_tags():
    assert [layer.value for layer in LAYERS] == ["hospital", "department", "doctor"]
    assert [layer.tag for layer in LAYERS] == ["h", "d", "p"]
    assert INTER_LAYER_PAIRS == (
        (LayerId.HOSPITAL, LayerId.DEPARTMENT),
        (LayerId.DEPARTMENT, LayerId.DOCTOR),
    )


def test_network_rejects_duplicate_node_ids(demo_network):
    graphs = {**demo_network.graphs, LayerId.HOSPITAL: ("H1", "H1")}
    with pytest.raises(InputError, match="hospital layer: duplicate node ids"):
        MultiLayerNetwork(graphs=graphs, intra=demo_network.intra, inter=demo_network.inter)


def test_adjacency_block_shape_and_immutability():
    block = AdjacencyBlock(rows=LayerId.HOSPITAL, cols=LayerId.HOSPITAL,
                           row_ids=("H1", "H2"), col_ids=("H1", "H2"),
                           weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert block.is_intra
    assert block.shape == (2, 2)
    with pytest.raises(ValueError):
        block.weights[0, 1] = 9.0


def test_adjacency_block_requires_matching_dimensions():
    with pytest.raises(InputError, match="does not match 1 row ids x 2 col ids"):
        AdjacencyBlock(rows=LayerId.HOSPITAL, cols=LayerId.DEPARTMENT,
                       row_ids=("H1",), col_ids=("D1", "D2"),
                       weights=np.zeros((2, 2)))


def test_trust_matrix_violations_flags_bad_rows():
    good = TrustMatrix(rows=LayerId.HOSPITAL, cols=LayerId.DEPARTMENT,
                       row_ids=("H1", "H2"), col_ids=("D1", "D2"),
                       values=np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert good.violations() == []
    assert good.tag == "hd"

    bad = TrustMatrix(rows=LayerId.HOSPITAL, cols=LayerId.HOSPITAL,
                      row_ids=("H1", "H2"), col_ids=("H1", "H2"),
                      values=np.array([[0.4, 0.4], [-0.1, 1.1]]))
    problems = bad.violations()
    assert any("sums to" in p and "H1" in p for p in problems)  # row sums to 0.8
    assert any("negative" in p for p in problems)
    assert any("above 1" in p for p in problems)

    for value in (np.nan, np.inf):
        broken = TrustMatrix(rows=LayerId.DEPARTMENT, cols=LayerId.DOCTOR,
                             row_ids=("D1",), col_ids=("P1", "P2"),
                             values=np.array([[value, 0.5]]))
        assert any("non-finite" in p and "P1" in p for p in broken.violations()), value


def test_trust_matrix_flags_nonzero_intra_diagonal():
    matrix = TrustMatrix(rows=LayerId.DOCTOR, cols=LayerId.DOCTOR,
                         row_ids=("P1", "P2"), col_ids=("P1", "P2"),
                         values=np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert any("diagonal" in p for p in matrix.violations())


def test_score_vector_rejects_negative_values():
    with pytest.raises(InputError, match="hospital residual scores: negative entry"):
        ScoreVector(layer=LayerId.HOSPITAL, kind=ScoreKind.RESIDUAL,
                    entity_ids=("H1",), values=np.array([-0.5]))


def test_score_vector_is_read_only():
    vec = ScoreVector(layer=LayerId.HOSPITAL, kind=ScoreKind.SOCIAL,
                      entity_ids=("H1", "H2"), values=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        vec.values[0] = 3.0


def test_validate_network_clean_on_demo(demo_network):
    assert validate_network(demo_network) == []


def test_validate_network_reports_asymmetry(demo_network):
    block = demo_network.intra[LayerId.HOSPITAL]
    weights = block.weights.copy()
    weights[0, 1] += 1.0
    broken = AdjacencyBlock(rows=block.rows, cols=block.cols,
                            row_ids=block.row_ids, col_ids=block.col_ids, weights=weights)
    intra = dict(demo_network.intra)
    intra[LayerId.HOSPITAL] = broken
    patched = type(demo_network)(graphs=demo_network.graphs, intra=intra,
                                 inter=demo_network.inter, provenance={})
    assert any("symmetric" in problem for problem in validate_network(patched))


def test_validate_network_reports_non_finite_weights(demo_network):
    def patched(block, value):
        weights = block.weights.copy()
        weights[0, 1] = value
        return AdjacencyBlock(rows=block.rows, cols=block.cols,
                              row_ids=block.row_ids, col_ids=block.col_ids, weights=weights)

    pair = (LayerId.DEPARTMENT, LayerId.DOCTOR)
    intra, inter = dict(demo_network.intra), dict(demo_network.inter)
    intra[LayerId.DOCTOR] = patched(intra[LayerId.DOCTOR], np.inf)
    inter[pair] = patched(inter[pair], np.nan)
    network = type(demo_network)(graphs=demo_network.graphs, intra=intra, inter=inter,
                                 provenance={})
    problems = validate_network(network)
    assert any(p.startswith("doctor intra block: non-finite weight inf") for p in problems)
    assert any(p.startswith("departmentxdoctor block: non-finite weight nan") for p in problems)
    own = intra[LayerId.DOCTOR].violations() + inter[pair].violations()
    assert own and sorted(own) == sorted(problems)


def test_block_sums_past_the_float_range_are_violations():
    def violations(weights):
        return AdjacencyBlock(rows=LayerId.DEPARTMENT, cols=LayerId.DOCTOR,
                              row_ids=("D1", "D2"), col_ids=("P1", "P2", "P3"),
                              weights=np.array(weights)).violations()

    big = 1e308
    # the first row is named before any column; no overflow warning escapes
    assert violations([[0.0, big, big], [big, 0.0, big]]) == [
        "departmentxdoctor block: the weights in row D1 sum past the float range"]
    assert violations([[0.0, big, 1.0], [1.0, big, 0.0]]) == [
        "departmentxdoctor block: the weights in column P2 sum past the float range"]
    # the total overflows, but no row or column does
    assert violations([[big, 0.0, 0.0], [0.0, big, 0.0]]) == []
    # a non-finite cell is reported alone
    assert violations([[np.inf, big, big], [0.0, 0.0, 0.0]]) == [
        "departmentxdoctor block: non-finite weight inf at (D1,P1)"]
    # a symmetric intra block names its row
    doctors = AdjacencyBlock(rows=LayerId.DOCTOR, cols=LayerId.DOCTOR, row_ids=("P1", "P2", "P3"),
                             col_ids=("P1", "P2", "P3"),
                             weights=np.array([[0.0, big, big], [big, 0.0, 0.0], [big, 0.0, 0.0]]))
    assert doctors.violations() == [
        "doctor intra block: the weights in row P1 sum past the float range"]


def test_demo_block_tags(demo_network):
    tags = [block.tag for block in (*demo_network.intra.values(), *demo_network.inter.values())]
    assert sorted(tags) == sorted(["h", "d", "p", "hd", "dp"])


def test_network_structure_enforced_at_construction(demo_network):
    h, d, p = LayerId.HOSPITAL, LayerId.DEPARTMENT, LayerId.DOCTOR
    intra, inter = dict(demo_network.intra), dict(demo_network.inter)
    missing_intra = {layer: block for layer, block in intra.items() if layer is not d}
    hospital_ids, doctor_ids = demo_network.node_ids(h), demo_network.node_ids(p)
    third_pair = {**inter, (h, p): AdjacencyBlock(
        rows=h, cols=p, row_ids=hospital_ids, col_ids=doctor_ids,
        weights=np.zeros((len(hospital_ids), len(doctor_ids))))}
    weights = intra[p].weights[::-1, ::-1]
    reversed_doctors = {**intra, p: AdjacencyBlock(
        rows=p, cols=p, row_ids=doctor_ids[::-1], col_ids=doctor_ids[::-1], weights=weights)}
    for intra_blocks, inter_blocks, message in (
            (missing_intra, inter, "an intra block for each of the three layers"),
            (intra, third_pair, "exactly the hospitalxdepartment and departmentxdoctor blocks"),
            (reversed_doctors, inter, "doctorxdoctor block: ids do not match the layers' node order")):
        with pytest.raises(InputError, match=message):
            MultiLayerNetwork(graphs=demo_network.graphs, intra=intra_blocks, inter=inter_blocks)


def masked_from_cells(shape, rows, cols, values, label):
    """The oracle: ``from_cells`` as it was when a dense boolean mask of the block's
    shape found a repeated cell."""
    rows, cols, values = np.asarray(rows), np.asarray(cols), np.asarray(values)
    if not (rows.ndim == cols.ndim == values.ndim == 1 and len(rows) == len(cols) == len(values)):
        raise InputError(f"{label}: row, col and value must be lists of equal length")
    for index, size in ((rows, shape[0]), (cols, shape[1])):
        if index.size and not (index.dtype.kind in "iu" and 0 <= index.min() <= index.max() < size):
            raise InputError(f"{label}: a cell index is not an integer inside the "
                             f"{shape[0]}x{shape[1]} matrix")
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    if values.size and values.dtype.kind not in "iuf":
        raise InputError(f"{label}: a cell value is not a number")
    seen = np.zeros(shape, dtype=bool)
    seen[rows, cols] = True
    if np.count_nonzero(seen) != len(rows):
        raise InputError(f"{label}: a cell is given more than once")
    matrix = np.zeros(shape)
    matrix[rows, cols] = values
    return matrix


def cells_outcome(build, *args):
    try:
        matrix = build(*args)
    except InputError as error:
        return str(error)
    return matrix.shape, matrix.tobytes()


def test_from_cells_rejects_a_repeated_cell():
    assert from_cells((2, 3), [1, 0], [2, 2], [0.5, 1.0], "b")[1, 2] == 0.5
    # the same row and the same column, each on its own, repeat freely
    for rows, cols in (([0, 1, 0], [2, 0, 2]), ([1, 1], [0, 0])):
        with pytest.raises(InputError, match="^b: a cell is given more than once$"):
            from_cells((2, 3), rows, cols, [1.0] * len(rows), "b")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_from_cells_matches_the_dense_mask_oracle(n_rows, n_cols, past_edges, data):
    """Small blocks, so cells repeat often; indices may reach one past each edge,
    and the columns may come as floats."""
    reach = int(past_edges)
    cells = data.draw(st.lists(st.tuples(st.integers(-reach, n_rows - 1 + reach),
                                         st.integers(-reach, n_cols - 1 + reach),
                                         st.floats(-1.0, 1.0)), max_size=10))
    rows, cols, values = ([cell[k] for cell in cells] for k in range(3))
    if data.draw(st.integers(0, 3)) == 0:
        cols = np.asarray(cols, dtype=float)
    args = ((n_rows, n_cols), rows, cols, values, "b")
    assert cells_outcome(from_cells, *args) == cells_outcome(masked_from_cells, *args)
