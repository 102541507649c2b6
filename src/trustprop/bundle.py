"""File formats of every artifact the commands write and read.

JSON artifacts carry a ``schema_version`` key and go through ``write_json``.
CSV artifacts are UTF-8 with LF line ends: a first-line comment
``# schema: <name>/<version>``, then the header, then the rows. ``write_csv``
writes every one of them and ``read_csv`` reads them back, ``edges.csv`` from
:mod:`stress` included. Loaders refuse versions they do not understand instead
of guessing. Every artifact is written to a temporary file and then moved into
place, so a failed write never leaves a half-written one.
"""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import InputError, MalformedRowError
from .model import (
    INTER_LAYER_PAIRS,
    LAYERS,
    AdjacencyBlock,
    LayerId,
    MultiLayerNetwork,
    from_cells,
    nonzero_cells,
    validate_network,
)

if TYPE_CHECKING:
    from .metrics import MetricsReport
    from .scoring import LayerScores
    from .stress import EdgeTable, StressRun
    from .trust import TrustNetwork

NETWORK_SCHEMA = 3
TRUST_SCHEMA = 1
METRICS_SCHEMA = 1
STRESS_SCHEMA = 1
SCORES_CSV_SCHEMA = "layer-scores/1"
TRACE_CSV_SCHEMA = "convergence-trace/1"
TRUST_VALUES_CSV_SCHEMA = "trust-values/1"
METRICS_CSV_SCHEMA = "metrics/1"
PAIRS_CSV_SCHEMA = "stress-pairs/1"
REPORT_SCHEMA = 1


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


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(data: dict, path) -> None:
    """One line of compact JSON with sorted keys. ``json.dumps`` in one call
    runs CPython's C encoder; numpy arrays become lists only as it reaches them."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=_json_default)
    with _open_artifact(path) as handle:
        handle.write(text + "\n")


_CELL_KEYS = ("row", "col", "weight")


def _block_payload(block: AdjacencyBlock) -> dict:
    """Every nonzero cell of the block, row-major, as three parallel lists."""
    return dict(zip(_CELL_KEYS, nonzero_cells(block.weights)))


def _block_from_payload(payload: Mapping, graphs: Mapping[LayerId, tuple[str, ...]],
                        rows: LayerId, cols: LayerId) -> AdjacencyBlock:
    row_ids, col_ids = graphs[rows], graphs[cols]
    weights = from_cells((len(row_ids), len(col_ids)), *(payload[key] for key in _CELL_KEYS),
                         f"{rows.value}x{cols.value} block")
    return AdjacencyBlock(rows=rows, cols=cols, row_ids=row_ids, col_ids=col_ids, weights=weights)


def save_network(network: MultiLayerNetwork, path) -> None:
    """Write each layer's ids once, and each block as its nonzero cells."""
    data = {
        "schema_version": NETWORK_SCHEMA,
        "layers": {layer.value: {"node_ids": list(network.node_ids(layer))} for layer in LAYERS},
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
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != NETWORK_SCHEMA:
        raise InputError(f"{path}: network bundle schema version {version!r} is not supported "
                         f"(expected {NETWORK_SCHEMA})")
    try:
        node_ids = [data["layers"][layer.value]["node_ids"] for layer in LAYERS]
        if not all(isinstance(ids, list) for ids in node_ids):
            raise InputError("each layer's node_ids must be a list")
        graphs = {layer: tuple(ids) for layer, ids in zip(LAYERS, node_ids)}
        intra = {layer: _block_from_payload(data["intra"][layer.value], graphs, layer, layer)
                 for layer in LAYERS}
        inter = {(rows, cols): _block_from_payload(data["inter"][f"{rows.value}:{cols.value}"],
                                                   graphs, rows, cols)
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
                "values": m.values,
            }
            for tag, m in trusts.by_tag().items()
        },
    }
    write_json(data, path)


def write_csv(path, schema: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV artifact: the ``# schema:`` line, the header, then the rows,
    LF-terminated; a field holding a comma, a quote or a line break is quoted."""
    with _open_artifact(path) as handle:
        handle.write(f"# schema: {schema}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, schema: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` for each non-empty row of a CSV artifact, once
    its schema line and its header match ``schema`` and ``header`` exactly;
    every row must be as wide as the header."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            first = handle.readline().strip()
            declared = first[len("# schema:"):].strip() if first.startswith("# schema:") else first
            if declared != schema:
                raise InputError(f"{path}: expected schema {schema!r}, found {declared!r}")
            reader = csv.reader(handle)
            found = next(reader, None)
            if found != list(header):
                raise MalformedRowError(str(path), 2, f"unexpected header {found!r}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise MalformedRowError(str(path), reader.line_num + 1,
                                            f"expected {len(header)} fields, got {len(row)}")
                yield reader.line_num + 1, row
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


#: every float of a CSV artifact, at 12 significant digits
format_float = "{:.12g}".format

_SCORES_HEADER = ("entity_id", "residual", "initial", "final", "iterations", "converged")


def write_scores_csv(scores: LayerScores, path) -> None:
    result = scores.result
    write_csv(path, SCORES_CSV_SCHEMA, _SCORES_HEADER, zip(
        scores.residual.entity_ids,
        map(format_float, scores.residual.values.tolist()),
        map(format_float, scores.initial.values.tolist()),
        map(format_float, result.scores.values.tolist()),
        repeat(result.iterations),
        repeat("true" if result.converged else "false")))


def read_scores_csv(path) -> dict[str, float]:
    """entity_id -> final score."""
    out = {}
    for line, row in read_csv(path, SCORES_CSV_SCHEMA, _SCORES_HEADER):
        try:
            final = float(row[3])
        except ValueError:
            final = math.nan
        if not math.isfinite(final):
            raise MalformedRowError(str(path), line,
                                    f"expected an entity_id and a finite final score, got {row!r}")
        if row[0] in out:
            raise MalformedRowError(str(path), line, f"entity_id: duplicate id {row[0]!r}")
        out[row[0]] = final
    return out


def write_convergence_csv(scores: LayerScores, path) -> None:
    write_csv(path, TRACE_CSV_SCHEMA, ("iteration", "delta"),
              enumerate(map(format_float, scores.result.deltas), start=1))


def write_trust_values_csv(table: EdgeTable, path) -> None:
    """The trust values of an exported edge table, ready for histograms:
    grouped by matrix tag in tag order, row-major within a tag."""
    order = np.argsort(table.tag, kind="stable")
    write_csv(path, TRUST_VALUES_CSV_SCHEMA, ("layer", "value"),
              zip(table.tag[order], map(format_float, table.trust[order].tolist())))


_METRIC_FIELDS = ("precision", "recall", "f1", "spearman", "kendall", "rmse", "mae")


def _fixed(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_metrics_csv(reports: Sequence[MetricsReport], path) -> None:
    write_csv(path, METRICS_CSV_SCHEMA,
              ("layer", "baseline", "scenario", "k", "sample_size", *_METRIC_FIELDS),
              ([r.layer, r.baseline, r.scenario, r.k, r.sample_size,
                *(_fixed(getattr(r, name)) for name in _METRIC_FIELDS)] for r in reports))


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
    write_csv(path, PAIRS_CSV_SCHEMA,
              ("seed", "layer", "src", "dst", "true_trust", "synthetic_trust"),
              chain.from_iterable(
                  zip(repeat(run.seed), run.edges.tag, run.edges.src, run.edges.dst,
                      map(format_float, run.edges.trust.tolist()),
                      map(format_float, run.synthetic.trust.tolist()))
                  for run in runs))
