"""File formats for built artifacts.

JSON artifacts carry a ``schema_version`` key; CSV artifacts carry a first-line
comment ``# schema: <name>/<version>``. Loaders refuse versions they do not
understand instead of guessing.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaVersionError
from .metrics import MetricsReport
from .model import (
    INTER_LAYER_PAIRS,
    LAYERS,
    AdjacencyBlock,
    LayerGraph,
    LayerId,
    MultiLayerNetwork,
    TrustMatrix,
)
from .scoring import LayerScores
from .stress import StressRun
from .trust import TrustNetwork

NETWORK_SCHEMA = 1
TRUST_SCHEMA = 1
METRICS_SCHEMA = 1
STRESS_SCHEMA = 1
SCORES_CSV_SCHEMA = "layer-scores/1"
TRACE_CSV_SCHEMA = "convergence-trace/1"
TRUST_VALUES_CSV_SCHEMA = "trust-values/1"
METRICS_CSV_SCHEMA = "metrics/1"
PAIRS_CSV_SCHEMA = "stress-pairs/1"
REPORT_SCHEMA = 1


def _check_json_schema(data: Mapping, expected: int, path, kind: str) -> None:
    version = data.get("schema_version")
    if version != expected:
        raise SchemaVersionError(
            f"{path}: {kind} schema version {version!r} is not supported (expected {expected})")


def _write_json(data: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _block_payload(block: AdjacencyBlock) -> dict:
    return {
        "rows": block.rows.value,
        "cols": block.cols.value,
        "row_ids": list(block.row_ids),
        "col_ids": list(block.col_ids),
        "weights": block.weights.tolist(),
    }


def _block_from_payload(payload: Mapping) -> AdjacencyBlock:
    return AdjacencyBlock(
        rows=LayerId(payload["rows"]),
        cols=LayerId(payload["cols"]),
        row_ids=tuple(payload["row_ids"]),
        col_ids=tuple(payload["col_ids"]),
        weights=np.asarray(payload["weights"], dtype=float).reshape(
            len(payload["row_ids"]), len(payload["col_ids"])),
    )


def save_network(network: MultiLayerNetwork, path) -> None:
    data = {
        "schema_version": NETWORK_SCHEMA,
        "layers": {
            layer.value: {
                "node_ids": list(network.graphs[layer].node_ids),
                "attributes": [sorted(a) for a in network.graphs[layer].attributes],
            }
            for layer in LAYERS
        },
        "intra": {layer.value: _block_payload(network.intra[layer]) for layer in LAYERS},
        "inter": {
            f"{pair[0].value}:{pair[1].value}": _block_payload(network.inter[pair])
            for pair in INTER_LAYER_PAIRS
        },
        "provenance": network.provenance,
    }
    _write_json(data, path)


def load_network(path) -> MultiLayerNetwork:
    data = _read_json(path)
    _check_json_schema(data, NETWORK_SCHEMA, path, "network bundle")
    graphs = {}
    for name, payload in data["layers"].items():
        layer = LayerId(name)
        graphs[layer] = LayerGraph(
            layer=layer,
            node_ids=tuple(payload["node_ids"]),
            attributes=tuple(frozenset(a) for a in payload["attributes"]),
        )
    intra = {LayerId(name): _block_from_payload(p) for name, p in data["intra"].items()}
    inter = {}
    for key, payload in data["inter"].items():
        rows, cols = key.split(":")
        inter[(LayerId(rows), LayerId(cols))] = _block_from_payload(payload)
    return MultiLayerNetwork(graphs=graphs, intra=intra, inter=inter,
                             provenance=data.get("provenance", {}))


def save_trust(trusts: TrustNetwork, path) -> None:
    data = {
        "schema_version": TRUST_SCHEMA,
        "matrices": {
            tag: {
                "rows": m.rows.value,
                "cols": m.cols.value,
                "row_ids": list(m.row_ids),
                "col_ids": list(m.col_ids),
                "values": m.values.tolist(),
            }
            for tag, m in trusts.by_tag().items()
        },
    }
    _write_json(data, path)


def load_trust(path) -> TrustNetwork:
    from .stress import trust_network_from_tags

    data = _read_json(path)
    _check_json_schema(data, TRUST_SCHEMA, path, "trust bundle")
    matrices = {}
    for tag, payload in data["matrices"].items():
        matrices[tag] = TrustMatrix(
            rows=LayerId(payload["rows"]),
            cols=LayerId(payload["cols"]),
            row_ids=tuple(payload["row_ids"]),
            col_ids=tuple(payload["col_ids"]),
            values=np.asarray(payload["values"], dtype=float).reshape(
                len(payload["row_ids"]), len(payload["col_ids"])),
        )
    return trust_network_from_tags(matrices)


def _open_csv(path, schema: str):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "w", encoding="utf-8", newline="")
    handle.write(f"# schema: {schema}\n")
    return handle


def check_csv_schema(path, expected: str) -> None:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().strip()
    declared = first.split(":", 1)[1].strip() if first.startswith("# schema:") else None
    if declared != expected:
        raise SchemaVersionError(f"{path}: expected schema {expected!r}, found {declared!r}")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_scores_csv(layer: LayerId, scores: LayerScores, path) -> None:
    with _open_csv(path, SCORES_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["entity_id", "residual", "initial", "final", "iterations", "converged"])
        result = scores.result
        for idx, entity in enumerate(scores.residual.entity_ids):
            writer.writerow([
                entity,
                _fmt(scores.residual.values[idx]),
                _fmt(scores.initial.values[idx]),
                _fmt(result.scores.values[idx]),
                str(result.iterations),
                "true" if result.converged else "false",
            ])


def read_scores_csv(path) -> dict[str, float]:
    """entity_id -> final score."""
    check_csv_schema(path, SCORES_CSV_SCHEMA)
    out = {}
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        for row in csv.DictReader(handle):
            out[row["entity_id"]] = float(row["final"])
    return out


def write_convergence_csv(layer: LayerId, scores: LayerScores, path) -> None:
    with _open_csv(path, TRACE_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "delta"])
        for i, delta in enumerate(scores.result.deltas, start=1):
            writer.writerow([str(i), _fmt(delta)])


def write_trust_values_csv(trusts: TrustNetwork, path) -> None:
    """Positive trust values per matrix tag, ready for histograms."""
    from .trust import nonzero_trust_values

    with _open_csv(path, TRUST_VALUES_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["layer", "value"])
        for tag, matrix in sorted(trusts.by_tag().items()):
            for value in nonzero_trust_values(matrix):
                writer.writerow([tag, _fmt(value)])


_METRIC_FIELDS = ("precision", "recall", "f1", "spearman", "kendall", "rmse", "mae")


def write_metrics_csv(reports: Sequence[MetricsReport], path) -> None:
    with _open_csv(path, METRICS_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["layer", "baseline", "scenario", "k", "sample_size", *_METRIC_FIELDS])
        for report in reports:
            row = [report.layer, report.baseline, report.scenario,
                   "" if report.k is None else str(report.k), str(report.sample_size)]
            for name in _METRIC_FIELDS:
                value = getattr(report, name)
                row.append("" if value is None else f"{value:.6f}")
            writer.writerow(row)


def write_metrics_json(reports: Sequence[MetricsReport], path) -> None:
    _write_json({
        "schema_version": METRICS_SCHEMA,
        "reports": [r.as_dict() for r in reports],
    }, path)


def write_stress_json(runs: Sequence[StressRun], generator: str, path) -> None:
    _write_json({
        "schema_version": STRESS_SCHEMA,
        "generator": generator,
        "runs": [
            {
                "seed": run.seed,
                "records": run.rebuild.records,
                "dropped_diagonal": run.rebuild.dropped_diagonal,
                "dropped_by_tag": run.rebuild.dropped_by_tag,
                "reports": [r.as_dict() for r in run.reports],
            }
            for run in runs
        ],
    }, path)


def write_stress_pairs_csv(runs: Sequence[StressRun], path) -> None:
    """(true, synthetic) trust pairs per edge and seed, for scatter plots."""
    with _open_csv(path, PAIRS_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "layer", "src", "dst", "true_trust", "synthetic_trust"])
        for run in runs:
            edges = run.edges
            for tag, src, dst, true_value, synth_value in zip(
                    edges.tag, edges.src, edges.dst, edges.trust.tolist(),
                    run.synthetic.trust.tolist()):
                writer.writerow([str(run.seed), tag, src, dst, _fmt(true_value), _fmt(synth_value)])
