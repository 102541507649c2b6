from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop import (AdjacencyBlock, LayerId, MultiLayerNetwork, ScoreVector, TrustMatrix,
                       validate_network)
from trustprop.errors import InputError
from trustprop.model import (INTER_LAYER_PAIRS, LAYERS, ROW_SUM_TOL, ScoreKind, cell_violations,
                             column_sums, from_cells, nonzero_cells, row_sums)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_vector_rejects_non_finite_values(bad):
    """NaN and infinities are refused as negative scores are, naming the first entity."""
    with pytest.raises(InputError,
                       match=f"^doctor initial scores: non-finite entry {bad} for P2$"):
        ScoreVector(layer=LayerId.DOCTOR, kind=ScoreKind.INITIAL,
                    entity_ids=("P1", "P2", "P3"), values=np.array([0.5, bad, bad]))


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
        cells = build(*args)
    except InputError as error:
        return str(error)
    if build is masked_from_cells:
        cells = nonzero_cells(cells)
    return [(array.dtype.str, array.tobytes()) for array in cells]


def test_from_cells_rejects_a_repeated_cell():
    # the cells come back row-major, read-only, the zero-valued one left out
    cells = from_cells((2, 3), [1, 0, 0], [2, 2, 0], [0.5, 1.0, 0.0], "b")
    assert [array.tolist() for array in cells] == [[0, 1], [2, 2], [1.0, 0.5]]
    assert not any(array.flags.writeable for array in cells)
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


@pytest.mark.parametrize("rows, cols, values, message", [
    ([0, True], [0, 1], [1.0, 2.0], "a cell index is not an integer inside the 2x3 matrix"),
    ([0, 1], [False, 1], [1.0, 2.0], "a cell index is not an integer inside the 2x3 matrix"),
    (np.array([True, False]), [0, 1], [1.0, 2.0],
     "a cell index is not an integer inside the 2x3 matrix"),
    ([0, 1], [0, 1], [True, 2.0], "a cell value is not a number"),
    ([0, 1], [0, 1], [1, False], "a cell value is not a number"),
    ([0], [0], np.array([True]), "a cell value is not a number"),
])
def test_from_cells_refuses_bools(rows, cols, values, message):
    """numpy reads ``[0, True]`` as integers and ``[10.0, True]`` as floats; a JSON
    ``true`` among a block's cells is still not a number."""
    with pytest.raises(InputError, match=f"^b: {message}$"):
        from_cells((2, 3), rows, cols, values, "b")


def sequential_sums(values, axis):
    """Each row's (``axis=1``) or column's (``axis=0``) sum of a dense matrix, added one
    cell after another, zeros included: the last partial sum of ``np.cumsum``, and 0 for
    a matrix of zero width along ``axis``. Not Python's ``sum``, which compensates on
    3.12+."""
    if values.shape[axis] == 0:
        return np.zeros(values.shape[1 - axis])
    return np.cumsum(values, axis=axis).take(-1, axis=axis)


def dense_cell_violations(label, values, row_ids, col_ids, *, square, symmetric=False,
                          stochastic=False):
    """The oracle: ``cell_violations`` on the dense matrix, with one n x n mask per check,
    each row and column summed in row-major order."""
    def first_cell(mask):
        hits = np.flatnonzero(mask)
        return np.unravel_index(hits[0], mask.shape) if hits.size else None

    noun = "value" if stochastic else "weight"

    def cell(i, j):
        return f"({row_ids[i]},{col_ids[j]})"

    out = []
    if (nonfinite := first_cell(~np.isfinite(values))) is not None:
        out.append(f"{label}: non-finite {noun} {values[nonfinite]} at {cell(*nonfinite)}")
    if (hit := first_cell(values < 0)) is not None:
        out.append(f"{label}: negative {noun} at {cell(*hit)}")
    if square:
        out += [f"{label}: nonzero diagonal at {cell(i, i)}"
                for i in np.flatnonzero(np.diagonal(values))]
    if symmetric and (hit := first_cell(values != values.T)) is not None:
        i, j = hit
        out.append(f"{label}: asymmetric at {cell(i, j)}={values[i, j]} "
                   f"vs {cell(j, i)}={values[j, i]}")
    if stochastic:
        if (hit := first_cell(values > 1 + ROW_SUM_TOL)) is not None:
            out.append(f"{label}: {noun} above 1 at {cell(*hit)}")
        out += [f"{label}: row {row_ids[i]} sums to {total}, not 0 or 1"
                for i, total in enumerate(sequential_sums(values, 1).tolist())
                if total != 0.0 and abs(total - 1.0) > ROW_SUM_TOL]
    elif nonfinite is None:
        for axis, name, ids in ((1, "row", row_ids), (0, "column", col_ids)):
            if (hit := first_cell(~np.isfinite(sequential_sums(values, axis)))) is not None:
                out.append(f"{label}: the {noun}s in {name} {ids[hit[0]]} sum past "
                           "the float range")
                break
    return out


#: fractions (rows of them may sum to 1) and counts; the faults each example seeds some of:
#: cells past 1, cells whose sums overflow (or cancel, in one order and not in another),
#: negative, NaN and infinite cells. No -0.0, which a matrix's cells leave out.
SOUND = st.one_of(st.just(0.0), st.integers(1, 8).flatmap(
    lambda d: st.integers(1, d).map(lambda k: k / d)), st.sampled_from([2.0, 7.0]))
FAULTS = (1e308, -1.0, -1e308, np.nan, np.inf, -np.inf)

#: a row of 16, which numpy's dense sum adds in eight interleaved partial sums, holding
#: 1e308 at columns 0 and 8 and -1e308 at column 1; the second example below swaps
#: columns 1 and 8, so that the overflow moves from the dense order to the row-major one
_INTERLEAVED = np.zeros((1, 16))
_INTERLEAVED[0, [0, 1, 8]] = 1e308, -1e308, 1e308


@st.composite
def faulty_matrices(draw):
    """A matrix of sound cells and of the faults this example seeds, with zeros common;
    a square one is first made symmetric with a zero diagonal, and then a few of its
    cells are set on their own, on the diagonal or off it."""
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    cells = st.one_of(SOUND, st.sampled_from(sorted(faults, key=str))) if faults else SOUND
    square = draw(st.booleans())
    n_rows = draw(st.integers(0, 12))
    n_cols = n_rows if square else draw(st.integers(0, 12))
    zeros = draw(st.floats(0.0, 0.95))
    values = np.array(draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols)),
                      dtype=float).reshape(n_rows, n_cols)
    values[np.random.default_rng(draw(st.integers(0, 2**16))).random(values.shape) < zeros] = 0.0
    if square:
        values = np.triu(values, 1) + np.triu(values, 1).T
        for _ in range(draw(st.integers(0, 3)) if n_rows else 0):
            i = draw(st.integers(0, n_rows - 1))
            j = i if draw(st.booleans()) else draw(st.integers(0, n_rows - 1))
            values[i, j] = draw(cells)
    return square, values


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(faulty_matrices(), st.booleans())
@example((False, np.array([[0.0, 1e308, 1e308], [1e308, -1.0, 0.5]])), False)  # row r0
@example((False, np.array([[0.0, 1e308, 1.0], [1.0, 1e308, 0.0]])), False)  # column c1
@example((True, np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])), False)
@example((True, np.array([[np.nan, 1.0], [1.0, 0.0]])), False)  # NaN differs from itself
@example((False, _INTERLEAVED), False)  # sound: row-major, it never passes 1e308
@example((False, _INTERLEAVED[:, [0, 8, 2, 3, 4, 5, 6, 7, 1, 9, 10, 11, 12, 13, 14, 15]]),
         False)  # overflows in row-major order, though numpy's dense sum stays finite
def test_cell_violations_match_the_dense_oracle(matrix, stochastic):
    """The checks over a matrix's cells give the dense checks' messages, in order, with
    every sum added in row-major order."""
    square, values = matrix
    row_ids = tuple(f"r{i}" for i in range(values.shape[0]))
    col_ids = row_ids if square else tuple(f"c{j}" for j in range(values.shape[1]))
    flags = dict(square=square, symmetric=square and not stochastic, stochastic=stochastic)
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle's stochastic row sums
        expected = dense_cell_violations("m", values, row_ids, col_ids, **flags)
    assert cell_violations("m", nonzero_cells(values), row_ids, col_ids, **flags) == expected


def test_the_checks_name_each_fault_of_a_block():
    values = np.array([[0.0, 2.0, np.nan], [3.0, 1.0, 0.0], [0.0, -1.0, 4.0]])
    ids = ("P1", "P2", "P3")
    block = AdjacencyBlock(rows=LayerId.DOCTOR, cols=LayerId.DOCTOR, row_ids=ids, col_ids=ids,
                           cells=nonzero_cells(values))
    assert block.violations() == [
        "doctor intra block: non-finite weight nan at (P1,P3)",
        "doctor intra block: negative weight at (P3,P2)",
        "doctor intra block: nonzero diagonal at (P2,P2)",
        "doctor intra block: nonzero diagonal at (P3,P3)",
        "doctor intra block: asymmetric at (P1,P2)=2.0 vs (P2,P1)=3.0"]


@pytest.mark.parametrize("mirror, expected", [
    (1.0, []),
    (5.0, ["m: asymmetric at (p2,p65541)=1.0 vs (p65541,p2)=5.0"])])
def test_symmetry_is_checked_past_16_bit_columns(mirror, expected):
    """A block wider than 2**16 sorts its lower cells by their full column: read as 16-bit
    numbers, columns 65 537 and 2 would sort as 1 and 2, the other way round."""
    n = (1 << 16) + 10
    ids = tuple(f"p{i}" for i in range(n))
    pairs = [(2, 65541, 1.0, mirror), (65537, 65540, 2.0, 2.0), (0, n - 1, 3.0, 3.0)]
    rows = [i for i, _, _, _ in pairs] + [j for _, j, _, _ in pairs]
    cols = [j for _, j, _, _ in pairs] + [i for i, _, _, _ in pairs]
    values = [v for _, _, v, _ in pairs] + [w for _, _, _, w in pairs]
    cells = from_cells((n, n), rows, cols, values, "m")
    assert cell_violations("m", cells, ids, ids, square=True, symmetric=True) == expected


@st.composite
def fractional_blocks(draw):
    """Blocks up to 300 columns wide, long enough that numpy's dense sum would add a row
    pairwise in blocks of 128, with fractional cells that add differently in another
    order."""
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(1, 13, size=(n_rows, n_cols)) / rng.integers(1, 13, size=(n_rows, n_cols))
    return values * (rng.random((n_rows, n_cols)) < draw(st.floats(0.0, 1.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(fractional_blocks())
@example(np.arange(1.0, 9.0)[:, None] / 7)  # one column
@example((np.arange(200) % 13 + 1.0)[None, :] / 7)  # one row
def test_sums_over_cells_add_in_row_major_order(weights):
    """Row sums over the cells add each row's cells in column order and column sums add
    each column's cells in row order, bit for bit, as float64."""
    cells = nonzero_cells(weights)
    for sums, axis in ((row_sums(cells, weights.shape), 1), (column_sums(cells, weights.shape), 0)):
        assert sums.dtype == np.float64
        assert sums.tobytes() == sequential_sums(weights, axis).tobytes()


@st.composite
def integer_blocks(draw):
    """Blocks of integer-valued cells, counts or huge, whose total stays below 2**53."""
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([13, 2**30, 2**53 // max(n_rows * n_cols, 1)]))
    values = rng.integers(0, top, size=(n_rows, n_cols)).astype(float)
    return values * (rng.random((n_rows, n_cols)) < draw(st.floats(0.0, 1.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(integer_blocks())
@example(np.zeros((3, 0)))
@example(np.full((2, 300), float(2**53 // 600)))
def test_integer_sums_hold_the_dense_sums_bits(weights):
    """Integer cells whose total stays below 2**53 sum exactly in any order, so their row
    and column sums over the cells are numpy's dense ``weights.sum(axis=1)`` and
    ``weights.T.sum(axis=1)``, bit for bit: the sums of intersection-count and belongs-to
    blocks do not depend on the order."""
    assert weights.sum() < 2**53
    cells = nonzero_cells(weights)
    assert row_sums(cells, weights.shape).tobytes() == weights.sum(axis=1).tobytes()
    assert column_sums(cells, weights.shape).tobytes() == weights.T.sum(axis=1).tobytes()


def test_sums_grow_with_the_cells_not_with_the_matrix():
    """Row sums of three cells of a 100 000 x 1 000 000 matrix peak near their 0.8 MB
    output: a dense row of that matrix alone is 8 MB."""
    cells = from_cells((100_000, 1_000_000), [0, 5, 99_999], [7, 999_999, 0], [1.0, 2.0, 3.0], "m")
    tracemalloc.start()
    try:
        sums = row_sums(cells, (100_000, 1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums[[0, 5, 99_999]].tolist() == [1.0, 2.0, 3.0] and sums.sum() == 6.0
    assert peak < 4_000_000
