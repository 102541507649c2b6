"""File formats for built artifacts.

JSON artifacts carry a ``schema_version`` key; CSV artifacts carry a first-line
comment ``# schema: <name>/<version>``. Loaders refuse versions they do not
understand instead of guessing. Every artifact is written to a temporary file
and then moved into place, so a failed write never leaves a half-written one.
"""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import InputError, MalformedRowError, SchemaVersionError
from .metrics import MetricsReport
from .model import (
    INTER_LAYER_PAIRS,
    LAYERS,
    AdjacencyBlock,
    LayerGraph,
    LayerId,
    MultiLayerNetwork,
    validate_network,
)
from .scoring import LayerScores
from .stress import EdgeTable, StressRun
from .trust import TrustNetwork

NETWORK_SCHEMA = 2
TRUST_SCHEMA = 1
METRICS_SCHEMA = 1
STRESS_SCHEMA = 1
SCORES_CSV_SCHEMA = "layer-scores/1"
TRACE_CSV_SCHEMA = "convergence-trace/1"
TRUST_VALUES_CSV_SCHEMA = "trust-values/1"
METRICS_CSV_SCHEMA = "metrics/1"
PAIRS_CSV_SCHEMA = "stress-pairs/1"
REPORT_SCHEMA = 1


def _check_json_schema(data, expected: int, path, kind: str) -> None:
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != expected:
        raise SchemaVersionError(
            f"{path}: {kind} schema version {version!r} is not supported (expected {expected})")


@contextmanager
def _open_artifact(path) -> Iterator[TextIO]:
    """Write to a temporary file beside ``path``, renamed onto it only when the block succeeds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def write_json(data: dict, path) -> None:
    with _open_artifact(path) as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


_CELL_KEYS = ("row", "col", "weight")


def _block_payload(block: AdjacencyBlock) -> dict:
    """Every nonzero cell of the block, row-major, as three parallel lists."""
    row, col = np.nonzero(block.weights)
    return dict(zip(_CELL_KEYS, (row.tolist(), col.tolist(), block.weights[row, col].tolist())))


def _block_from_payload(payload: Mapping, rows: LayerGraph, cols: LayerGraph) -> AdjacencyBlock:
    name = f"{rows.layer.value}x{cols.layer.value}"
    row, col, weight = (np.asarray(payload[key]) for key in _CELL_KEYS)
    if not (row.ndim == col.ndim == weight.ndim == 1 and len(row) == len(col) == len(weight)):
        raise InputError(f"{name} block: row, col and weight must be lists of equal length")
    for index, graph in ((row, rows), (col, cols)):
        if index.size and not (index.dtype.kind in "iu" and 0 <= index.min() <= index.max() < len(graph)):
            raise InputError(f"{name} block: a cell index is not a {graph.layer.value} node index")
    if weight.size and weight.dtype.kind not in "iuf":
        raise InputError(f"{name} block: a weight is not a number")
    weights = np.zeros((len(rows), len(cols)))
    weights[row.astype(np.intp), col.astype(np.intp)] = weight
    return AdjacencyBlock(rows=rows.layer, cols=cols.layer, row_ids=rows.node_ids,
                          col_ids=cols.node_ids, weights=weights)


def save_network(network: MultiLayerNetwork, path) -> None:
    """Write each layer's ids and attributes once, and each block as its nonzero cells."""
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
    write_json(data, path)


def load_network(path) -> MultiLayerNetwork:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    _check_json_schema(data, NETWORK_SCHEMA, path, "network bundle")
    try:
        layers = data["layers"]
        graphs = {layer: LayerGraph(layer, tuple(layers[layer.value]["node_ids"]),
                                    tuple(map(frozenset, layers[layer.value]["attributes"])))
                  for layer in LAYERS}
        intra = {layer: _block_from_payload(data["intra"][layer.value], graphs[layer], graphs[layer])
                 for layer in LAYERS}
        inter = {(rows, cols): _block_from_payload(data["inter"][f"{rows.value}:{cols.value}"],
                                                   graphs[rows], graphs[cols])
                 for rows, cols in INTER_LAYER_PAIRS}
        network = MultiLayerNetwork(graphs=graphs, intra=intra, inter=inter,
                                    provenance=data.get("provenance", {}))
    except KeyError as exc:
        raise InputError(f"{path}: network bundle lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed network bundle: {exc}") from None
    violations = validate_network(network)
    if violations:
        raise InputError(f"{path}: invalid network bundle: {violations[0]}")
    return network


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
    write_json(data, path)


@contextmanager
def open_csv(path, schema: str) -> Iterator[TextIO]:
    """Open an artifact for writing, as ``write_json`` does, and write its ``# schema:`` line."""
    with _open_artifact(path) as handle:
        handle.write(f"# schema: {schema}\n")
        yield handle


def check_csv_schema(path, expected: str) -> None:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().strip()
    declared = first.split(":", 1)[1].strip() if first.startswith("# schema:") else None
    if declared != expected:
        raise SchemaVersionError(f"{path}: expected schema {expected!r}, found {declared!r}")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_scores_csv(layer: LayerId, scores: LayerScores, path) -> None:
    with open_csv(path, SCORES_CSV_SCHEMA) as handle:
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
        reader = csv.DictReader(handle)
        for row in reader:
            ident, cell = row.get("entity_id"), row.get("final")
            try:
                final = float(cell)
            except (TypeError, ValueError):
                final = math.nan
            if ident is None or not math.isfinite(final):
                raise MalformedRowError(str(path), reader.line_num + 1,
                                        f"expected an entity_id and a finite final score, got {cell!r}")
            out[ident] = final
    return out


def write_convergence_csv(layer: LayerId, scores: LayerScores, path) -> None:
    with open_csv(path, TRACE_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "delta"])
        for i, delta in enumerate(scores.result.deltas, start=1):
            writer.writerow([str(i), _fmt(delta)])


def write_trust_values_csv(table: EdgeTable, path) -> None:
    """The trust values of an exported edge table, ready for histograms:
    grouped by matrix tag in tag order, row-major within a tag."""
    order = np.argsort(table.tag, kind="stable")
    with open_csv(path, TRUST_VALUES_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["layer", "value"])
        writer.writerows(zip(table.tag[order], map(_fmt, table.trust[order].tolist())))


_METRIC_FIELDS = ("precision", "recall", "f1", "spearman", "kendall", "rmse", "mae")


def write_metrics_csv(reports: Sequence[MetricsReport], path) -> None:
    with open_csv(path, METRICS_CSV_SCHEMA) as handle:
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
    write_json({
        "schema_version": METRICS_SCHEMA,
        "reports": [r.as_dict() for r in reports],
    }, path)


def write_stress_json(runs: Sequence[StressRun], generator: str, path) -> None:
    write_json({
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
    with open_csv(path, PAIRS_CSV_SCHEMA) as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "layer", "src", "dst", "true_trust", "synthetic_trust"])
        for run in runs:
            edges = run.edges
            for tag, src, dst, true_value, synth_value in zip(
                    edges.tag, edges.src, edges.dst, edges.trust.tolist(),
                    run.synthetic.trust.tolist()):
                writer.writerow([str(run.seed), tag, src, dst, _fmt(true_value), _fmt(synth_value)])
