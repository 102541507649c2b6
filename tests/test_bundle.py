from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trustprop
from test_builder import random_store
from test_stress import sparse_store
from trustprop import LayerId, TrustMatrix, build_network, derive_network_trust
from trustprop.builder import SimilarityMode
from trustprop.bundle import (
    load_network,
    read_csv,
    read_scores_csv,
    save_network,
    save_trust,
    write_csv,
    write_json,
    write_scores_csv,
    write_trust_values_csv,
)
from trustprop.cli import eval_columns
from trustprop.errors import InputError
from trustprop.ingest import EntityStore, ground_truth_ratings
from trustprop.model import INTER_LAYER_PAIRS, nonzero_cells
from trustprop.scoring import ConvergenceConfig, ResidualConfig, generate_residual, score_network
from trustprop.stress import export_edge_table
from trustprop.trust import TrustNetwork


def bundle_networks(demo_network):
    rng = np.random.default_rng(17)
    stores = [random_store(rng, n_hospitals=5, n_departments=6, n_doctors=9) for _ in range(5)]
    return ([demo_network, build_network(EntityStore({}, {}, {}))]
            + [build_network(store, mode) for store in stores for mode in SimilarityMode])


def blocks(network):
    return {**{layer.value: network.intra[layer] for layer in LayerId},
            **{f"{rows.value}:{cols.value}": block
               for (rows, cols), block in network.inter.items()}}


def same_block(a, b):
    return ((a.rows, a.cols, a.row_ids, a.col_ids) == (b.rows, b.cols, b.row_ids, b.col_ids)
            and np.array_equal(a.weights, b.weights))


def test_network_bundle_round_trip(tmp_path, demo_network):
    path = tmp_path / "network.json"
    for network in bundle_networks(demo_network):
        save_network(network, path)
        payload = json.loads(path.read_text())
        stored = {**payload["intra"], **payload["inter"]}
        for key, block in blocks(network).items():
            # the nonzero cells only, with no id lists of their own
            assert set(stored[key]) == {"row", "col", "weight"}, key
            assert {len(cells) for cells in stored[key].values()} == {
                np.count_nonzero(block.weights)}, key
        again = load_network(path)
        for layer in LayerId:
            assert again.node_ids(layer) == network.node_ids(layer)
        assert blocks(again).keys() == blocks(network).keys()
        for key, block in blocks(network).items():
            assert same_block(blocks(again)[key], block), key
        assert again.provenance == network.provenance


def test_trust_bundle_round_trip(tmp_path, demo_trust):
    path = tmp_path / "trust.json"
    save_trust(demo_trust, path)
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["matrices"].keys() == demo_trust.by_tag().keys()
    for tag, matrix in demo_trust.by_tag().items():
        stored = payload["matrices"][tag]
        assert (stored["rows"], stored["cols"]) == (matrix.rows.value, matrix.cols.value), tag
        assert (tuple(stored["row_ids"]), tuple(stored["col_ids"])) == (
            matrix.row_ids, matrix.col_ids), tag
        assert np.array_equal(np.asarray(stored["values"], dtype=float), matrix.values), tag


def dense_save_trust(trusts, path):
    """The writer that handed every dense matrix to ``write_json``, kept as the oracle."""
    write_json({"schema_version": 1, "matrices": {
        tag: {"rows": m.rows.value, "cols": m.cols.value, "row_ids": list(m.row_ids),
              "col_ids": list(m.col_ids), "values": m.values}
        for tag, m in trusts.by_tag().items()}}, path)


#: zeros common enough for empty rows, fractions whose reprs run to 17 digits, the extremes
#: of the float range, and the encoder's NaN and Infinity. No -0.0: a matrix's cells leave
#: out zeros of either sign, so a dense -0.0 is written as 0.0 (pinned in its own test).
TRUST_VALUES = st.one_of(st.just(0.0), st.just(0.0),
                         st.sampled_from([1.0, 1 / 3, 0.1, 5e-324, 1.7976931348623157e308,
                                          float("nan"), float("inf")]),
                         st.floats(min_value=0.0, max_value=1.0, exclude_min=True))


def trust_matrix(rows, cols, values, given_cells=True, prefix=""):
    """A trust matrix of ``values``, given its cells or its dense values."""
    row_ids = tuple(f"{prefix}{rows.tag}{i}" for i in range(values.shape[0]))
    col_ids = tuple(f"{prefix}{cols.tag}{j}" for j in range(values.shape[1]))
    if given_cells:
        return TrustMatrix(rows, cols, row_ids, col_ids, cells=nonzero_cells(values))
    return TrustMatrix(rows, cols, row_ids, col_ids, values)


def trust_network(make):
    """The seven matrices ``make(rows, cols)`` gives, one per trust direction."""
    inter = [*INTER_LAYER_PAIRS, *((cols, rows) for rows, cols in INTER_LAYER_PAIRS)]
    return TrustNetwork(intra={layer: make(layer, layer) for layer in LayerId},
                        inter={pair: make(*pair) for pair in inter})


@st.composite
def trust_networks(draw):
    def make(rows, cols):
        n, m = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        values = draw(st.lists(st.lists(TRUST_VALUES, min_size=m, max_size=m),
                               min_size=n, max_size=n))
        return trust_matrix(rows, cols, np.array(values, dtype=float).reshape(n, m),
                            draw(st.booleans()), draw(st.sampled_from(["", "Café ", 'a "b" \\ '])))
    return trust_network(make)


def one_matrix(values, given_cells=True):
    """A trust network whose seven matrices all hold ``values``."""
    return trust_network(lambda rows, cols: trust_matrix(rows, cols, values, given_cells))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(trust_networks())
@example(one_matrix(np.zeros((0, 4))))
@example(one_matrix(np.zeros((3, 0)), given_cells=False))
@example(one_matrix(np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.30000000000000004, 0.0, 0.0]])))
@example(one_matrix(np.array([[0.0, 1 / 3, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.1]]),
                    given_cells=False))
@example(one_matrix(np.array([[float("nan"), 0.0, float("inf")]])))
def test_streamed_trust_json_holds_the_dense_encoders_bytes(tmp_path_factory, trusts):
    """``save_trust`` builds each row from the matrix's cells, and its file is byte for
    byte the one ``write_json`` gives the dense matrices: empty rows, 0xk and kx0 shapes,
    cells in the first and last column, 17-digit reprs, NaN, Infinity and non-ASCII ids."""
    folder = tmp_path_factory.mktemp("trust")
    save_trust(trusts, folder / "streamed.json")
    # the dense values are built here, for the oracle, only after the writer ran
    dense_save_trust(trusts, folder / "dense.json")
    assert (folder / "streamed.json").read_bytes() == (folder / "dense.json").read_bytes()


def test_a_dense_negative_zero_is_written_as_zero(tmp_path):
    """The one value whose bytes differ from the dense encoder's: a matrix given dense
    values keeps a -0.0 out of its cells, so ``save_trust`` writes it as 0.0."""
    values = np.array([[-0.0, 0.5], [0.5, -0.0]])
    save_trust(one_matrix(values, given_cells=False), tmp_path / "streamed.json")
    dense_save_trust(one_matrix(np.abs(values), given_cells=False), tmp_path / "zero.json")
    dense_save_trust(one_matrix(values, given_cells=False), tmp_path / "signed.json")
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "zero.json").read_bytes()
    assert b"-0.0" in (tmp_path / "signed.json").read_bytes()
    assert b"-0.0" not in (tmp_path / "streamed.json").read_bytes()


def trust_json_peak(n_doctors, path):
    """Traced peak bytes of ``save_trust`` on a store where each hospital has 6 doctors."""
    trusts = derive_network_trust(build_network(sparse_store(n_doctors, n_doctors // 6)))
    tracemalloc.start()
    try:
        save_trust(trusts, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        path.unlink(missing_ok=True)


def test_trust_json_memory_grows_with_the_cells(tmp_path):
    """Four times the entities is four times the cells and the row width: the writer's
    peak may grow 6x, where encoding the dense matrices grows it 16x."""
    path = tmp_path / "trust.json"
    assert trust_json_peak(4800, path) / trust_json_peak(1200, path) <= 6


def test_a_failed_trust_write_leaves_the_previous_file(tmp_path, demo_trust, monkeypatch):
    path = tmp_path / "trust.json"
    save_trust(derive_network_trust(build_network(sparse_store(12, 2))), path)
    before = path.read_bytes()

    def cells(matrix):
        # the sixth matrix in tag order fails, after five have been written
        if matrix.tag == "p":
            raise OSError(28, "No space left on device")
        return vars(matrix)["cells"]

    monkeypatch.setattr(TrustMatrix, "cells", property(cells))
    with pytest.raises(OSError, match="No space left"):
        save_trust(demo_trust, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_unknown_schema_version_rejected(tmp_path, demo_network):
    path = tmp_path / "network.json"
    save_network(demo_network, path)
    payload = json.loads(path.read_text())
    for version in (1, 2, 42, None):
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError,
                           match=f"network bundle schema version {version!r} is not supported"):
            load_network(path)


def repeat_first_cell(block, weight=None):
    """List a block's first cell a second time, with ``weight`` or its own weight."""
    for key in ("row", "col", "weight"):
        block[key].append(block[key][0])
    if weight is not None:
        block["weight"][-1] = weight


def overflow_first_row(block):
    """Set a block's first two cells, which share a row, to 1e308: that row's sum overflows."""
    assert block["row"][0] == block["row"][1]
    block["weight"][:2] = [1e308, 1e308]


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("layers"),
    lambda p: p["layers"].pop("doctor"),
    lambda p: p["layers"]["hospital"].pop("node_ids"),
    lambda p: p["intra"].pop("department"),
    lambda p: p["inter"].pop("hospital:department"),
    lambda p: p["intra"]["doctor"].pop("weight"),
    lambda p: p["intra"]["doctor"]["row"].pop(),
    lambda p: p["inter"]["department:doctor"]["weight"].append(1.0),
    lambda p: p["intra"]["hospital"].update(row=[0.5] * len(p["intra"]["hospital"]["row"])),
    lambda p: p["intra"]["hospital"].update(col=[True] * len(p["intra"]["hospital"]["col"])),
    lambda p: p["intra"]["hospital"]["col"].__setitem__(0, "1"),
    lambda p: p["intra"]["hospital"]["row"].__setitem__(0, -1),
    lambda p: p["intra"]["hospital"]["row"].__setitem__(0, 4),
    lambda p: p["inter"]["hospital:department"]["col"].__setitem__(0, 4),
    lambda p: p["inter"]["hospital:department"]["weight"].__setitem__(0, None),
    lambda p: p["intra"].update(hospital=[]),
    lambda p: p["layers"]["hospital"].update(node_ids=5),
    lambda p: p["layers"]["hospital"].update(node_ids=["H1", "H1", "H2", "H3"]),
    lambda p: p["inter"]["department:doctor"]["weight"].__setitem__(0, float("nan")),
    lambda p: p["inter"]["department:doctor"]["weight"].__setitem__(0, -5.0),
    lambda p: p["intra"]["hospital"]["weight"].__setitem__(0, 99.0),
    lambda p: repeat_first_cell(p["inter"]["department:doctor"], weight=1000.0),
    lambda p: repeat_first_cell(p["intra"]["hospital"]),
    lambda p: p["layers"]["hospital"].update(node_ids="WXYZ"),
    lambda p: p["layers"]["doctor"]["columns"][0][1].__setitem__(0, float("nan")),
    lambda p: p["layers"]["hospital"]["columns"][1][1].pop(),
    lambda p: p["layers"]["department"]["columns"][1][1].__setitem__(0, None),
    lambda p: p["layers"]["doctor"]["columns"][2][1].__setitem__(0, "3.0"),
    lambda p: p.update(schema_version=3),
    lambda p: p["layers"]["hospital"]["columns"].append(p["layers"]["hospital"]["columns"][1]),
    lambda p: overflow_first_row(p["inter"]["department:doctor"]),
])
def test_malformed_network_bundle_rejected(tmp_path, demo_network, demo_store, mutate):
    path = tmp_path / "network.json"
    save_network(replace(demo_network, columns=eval_columns(demo_store, demo_network)), path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError):
        load_network(path)


@pytest.mark.parametrize("text", ["", "{\"schema_version\": 2, \"lay", "[2]", "\"x\""])
def test_unparseable_network_bundle_rejected(tmp_path, text):
    path = tmp_path / "network.json"
    path.write_text(text)
    with pytest.raises(InputError):
        load_network(path)


def test_failed_write_keeps_old_artifact(tmp_path):
    json_path, csv_path = tmp_path / "report.json", tmp_path / "values.csv"
    write_json({"old": True}, json_path)
    write_csv(csv_path, "test/1", ["value"], [["old"]])
    before = {path: path.read_bytes() for path in (json_path, csv_path)}
    with pytest.raises(TypeError):
        write_json({"new": True, "broken": object()}, json_path)

    def rows():
        yield from [["new"]] * 1000
        raise RuntimeError("writer failed partway")

    with pytest.raises(RuntimeError):
        write_csv(csv_path, "test/1", ["value"], rows())
    assert {path: path.read_bytes() for path in (json_path, csv_path)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "values.csv"]


def test_json_artifact_is_one_compact_line(tmp_path):
    path = tmp_path / "doc.json"
    document = {"vector": np.array([0.1, 2.0, 3]), "matrix": np.arange(6.0).reshape(2, 3) / 7,
                "cells": np.array([0, 4, 9]), "name": "x", "nested": {"b": 1, "a": [1.5]}}
    write_json(document, path)
    plain = {**document, **{key: document[key].tolist() for key in ("vector", "matrix", "cells")}}
    assert path.read_text(encoding="utf-8") == json.dumps(
        plain, sort_keys=True, separators=(",", ":")) + "\n"


def test_numpy_scalar_fails_and_keeps_old_artifact(tmp_path):
    # only whole arrays are converted; an object() is test_failed_write_keeps_old_artifact's case
    path = tmp_path / "report.json"
    write_json({"old": True}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json({"new": np.zeros(2), "broken": np.int64(3)}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_scores_csv_round_trip(tmp_path, demo_network, demo_trust):
    residuals = {
        layer: generate_residual(ResidualConfig.constant(0.2), len(demo_network.node_ids(layer)),
                                 layer, demo_network.node_ids(layer))
        for layer in LayerId
    }
    scored = score_network(demo_trust, residuals, ConvergenceConfig())
    path = tmp_path / "scores.csv"
    write_scores_csv(scored[LayerId.HOSPITAL], path)
    finals = read_scores_csv(path)
    want = scored[LayerId.HOSPITAL].result.scores
    assert set(finals) == set(want.entity_ids)
    for ident, value in zip(want.entity_ids, want.values):
        assert finals[ident] == pytest.approx(value, abs=1e-12)


def test_csv_schema_check(tmp_path, demo_trust):
    path = tmp_path / "trust_values.csv"
    write_trust_values_csv(export_edge_table(demo_trust.all_matrices()), path)
    assert len(list(read_csv(path, "trust-values/1", ["layer", "value"]))) > 0
    with pytest.raises(InputError,
                       match="expected schema 'layer-scores/1', found 'trust-values/1'"):
        next(read_csv(path, "layer-scores/1", ["layer", "value"]))


def test_bundle_imports_no_pipeline_module():
    # The package __init__ re-exports every module, so bundle is loaded under a
    # bare package: what remains loaded afterwards is what bundle itself imports.
    script = (
        "import sys, types\n"
        "package = types.ModuleType('trustprop')\n"
        f"package.__path__ = [{str(Path(trustprop.__file__).parent)!r}]\n"
        "sys.modules['trustprop'] = package\n"
        "import trustprop.bundle\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True)
    loaded = set(result.stdout.split())
    assert "trustprop.bundle" in loaded
    assert not loaded & {"trustprop.stress", "trustprop.scoring", "trustprop.metrics",
                         "trustprop.trust"}


def test_ground_truth_survives_store_round_trip(demo_store):
    truth = ground_truth_ratings(demo_store)
    assert len(truth["hospital"]) == 4
    assert len(truth["department"]) == 4
    assert len(truth["doctor"]) == 5
