from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trustprop
from test_builder import random_store
from trustprop import LayerId, build_network
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
from trustprop.scoring import ConvergenceConfig, ResidualConfig, generate_residual, score_network
from trustprop.stress import export_edge_table


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
