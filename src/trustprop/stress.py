"""Synthetic stress pipeline: export trust edges, regenerate them, rebuild, rescore.

The trust matrices flatten to an edge table (one record per positive cell). A
generator rewrites the trust values — identity copy, Dirichlet perturbation
around each source row, or bootstrap resampling within a layer — and the table
is pivoted back into matrices, renormalized, and scored again. Comparing the
rescored network against the original quantifies how much the scoring pipeline
leans on the exact trust values.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyTableError,
    InputError,
    InvalidConfigError,
    MalformedRowError,
    OutOfShapeError,
    SchemaVersionError,
)
from .metrics import MetricsReport, build_report
from .model import LayerId, ScoreVector, TrustMatrix
from .scoring import ConvergenceConfig, LayerScores, score_network
from .trust import TrustNetwork

EDGE_TABLE_SCHEMA = "trust-edges/1"

_TAG_LAYERS: dict[str, tuple[LayerId, LayerId]] = {
    "h": (LayerId.HOSPITAL, LayerId.HOSPITAL),
    "d": (LayerId.DEPARTMENT, LayerId.DEPARTMENT),
    "p": (LayerId.DOCTOR, LayerId.DOCTOR),
    "hd": (LayerId.HOSPITAL, LayerId.DEPARTMENT),
    "dh": (LayerId.DEPARTMENT, LayerId.HOSPITAL),
    "dp": (LayerId.DEPARTMENT, LayerId.DOCTOR),
    "pd": (LayerId.DOCTOR, LayerId.DEPARTMENT),
}


@dataclass(frozen=True)
class EdgeRecord:
    """One positive trust cell: tag names the matrix, src/dst the entities."""

    layer_tag: str
    src: str
    dst: str
    trust: float

    def __post_init__(self):
        if self.layer_tag not in _TAG_LAYERS:
            raise InputError(f"unknown layer tag {self.layer_tag!r}")
        if not self.trust > 0:
            raise InputError(f"edge trust must be positive, got {self.trust!r} "
                             f"({self.layer_tag}: {self.src}->{self.dst})")


class GeneratorMethod(Enum):
    IDENTITY = "identity"
    DIRICHLET = "dirichlet"
    BOOTSTRAP = "bootstrap"


@dataclass(frozen=True)
class GeneratorConfig:
    method: GeneratorMethod = GeneratorMethod.IDENTITY
    #: Dirichlet concentration multiplier; larger means closer to the original rows
    concentration: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.method, GeneratorMethod):
            raise InvalidConfigError(f"unknown generator method {self.method!r}")
        if self.concentration <= 0:
            raise InvalidConfigError(f"concentration must be positive, got {self.concentration}")
        if self.seed < 0:
            raise InvalidConfigError("generator seed must be a non-negative integer")


def export_edge_table(matrices: Iterable[TrustMatrix]) -> list[EdgeRecord]:
    """Flatten trust matrices to records, row-major, skipping zero cells."""
    table: list[EdgeRecord] = []
    for matrix in matrices:
        values = matrix.values
        for i, j in np.argwhere(values > 0):
            table.append(EdgeRecord(layer_tag=matrix.tag, src=matrix.row_ids[i],
                                    dst=matrix.col_ids[j], trust=float(values[i, j])))
    return table


def write_edge_table(table: Sequence[EdgeRecord], path) -> None:
    """Write records as CSV with 12 significant digits of trust."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# schema: {EDGE_TABLE_SCHEMA}\n")
        handle.write("layer,src,dst,trust\n")
        for rec in table:
            handle.write(f"{rec.layer_tag},{rec.src},{rec.dst},{rec.trust:.12g}\n")


def read_edge_table(path) -> list[EdgeRecord]:
    table: list[EdgeRecord] = []
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().strip()
        if not first.startswith("# schema:"):
            raise SchemaVersionError(f"{path}: missing schema marker line")
        declared = first.split(":", 1)[1].strip()
        if declared != EDGE_TABLE_SCHEMA:
            raise SchemaVersionError(f"{path}: unsupported schema {declared!r}")
        header = handle.readline().strip()
        if header != "layer,src,dst,trust":
            raise MalformedRowError(str(path), 2, f"unexpected header {header!r}")
        for line_no, line in enumerate(handle, start=3):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise MalformedRowError(str(path), line_no, f"expected 4 fields, got {len(parts)}")
            tag, src, dst, raw = parts
            try:
                trust = float(raw)
            except ValueError:
                raise MalformedRowError(str(path), line_no, f"bad trust value {raw!r}")
            try:
                table.append(EdgeRecord(layer_tag=tag, src=src, dst=dst, trust=trust))
            except InputError as exc:
                raise MalformedRowError(str(path), line_no, str(exc))
    return table


def generate_synthetic(table: Sequence[EdgeRecord], config: GeneratorConfig) -> list[EdgeRecord]:
    """Rewrite the trust values of an edge table, keeping its (src, dst) support.

    identity copies values verbatim. dirichlet redraws each source row from
    Dirichlet(concentration * row values), so larger concentrations hug the
    original distribution. bootstrap resamples values with replacement within
    each layer tag.
    """
    if not table:
        raise EmptyTableError("cannot generate from an empty edge table")
    if config.method is GeneratorMethod.IDENTITY:
        return list(table)

    rng = np.random.default_rng(config.seed)
    if config.method is GeneratorMethod.DIRICHLET:
        groups: dict[tuple[str, str], list[int]] = {}
        for idx, rec in enumerate(table):
            groups.setdefault((rec.layer_tag, rec.src), []).append(idx)
        out: list[EdgeRecord] = list(table)
        for key in groups:
            indices = groups[key]
            alpha = config.concentration * np.array([table[i].trust for i in indices])
            draw = rng.dirichlet(alpha)
            for i, value in zip(indices, draw):
                rec = table[i]
                out[i] = EdgeRecord(layer_tag=rec.layer_tag, src=rec.src,
                                    dst=rec.dst, trust=float(value))
        return out

    by_tag: dict[str, list[int]] = {}
    for idx, rec in enumerate(table):
        by_tag.setdefault(rec.layer_tag, []).append(idx)
    out = list(table)
    for tag in by_tag:
        indices = by_tag[tag]
        values = np.array([table[i].trust for i in indices])
        drawn = rng.choice(values, size=len(indices), replace=True)
        for i, value in zip(indices, drawn):
            rec = table[i]
            out[i] = EdgeRecord(layer_tag=rec.layer_tag, src=rec.src,
                                dst=rec.dst, trust=float(value))
    return out


@dataclass(frozen=True)
class RebuildReport:
    """What the pivot back into matrices had to do."""

    records: int
    dropped_diagonal: int
    dropped_by_tag: dict[str, int] = field(default_factory=dict)


def rebuild_trust(table: Sequence[EdgeRecord],
                  shapes: Mapping[str, TrustMatrix]) -> tuple[dict[str, TrustMatrix], RebuildReport]:
    """Pivot an edge table back into row-stochastic trust matrices.

    Cells absent from the table are zero-filled. Records landing on an
    intra-layer diagonal are dropped and counted (self-trust is structurally
    excluded). Every row is renormalized, so record values only set row
    proportions.
    """
    grids: dict[str, np.ndarray] = {}
    indexes: dict[str, tuple[dict[str, int], dict[str, int]]] = {}
    for tag, template in shapes.items():
        grids[tag] = np.zeros(template.shape)
        indexes[tag] = ({n: i for i, n in enumerate(template.row_ids)},
                        {n: j for j, n in enumerate(template.col_ids)})

    dropped: dict[str, int] = {}
    for rec in table:
        if rec.layer_tag not in grids:
            raise OutOfShapeError(f"record tag {rec.layer_tag!r} has no target matrix")
        row_index, col_index = indexes[rec.layer_tag]
        if rec.src not in row_index or rec.dst not in col_index:
            raise OutOfShapeError(
                f"{rec.layer_tag}: record ({rec.src},{rec.dst}) falls outside the matrix ids")
        rows_layer, cols_layer = _TAG_LAYERS[rec.layer_tag]
        if rows_layer is cols_layer and rec.src == rec.dst:
            dropped[rec.layer_tag] = dropped.get(rec.layer_tag, 0) + 1
            continue
        grids[rec.layer_tag][row_index[rec.src], col_index[rec.dst]] = rec.trust

    matrices = {}
    for tag, grid in grids.items():
        template = shapes[tag]
        sums = grid.sum(axis=1, keepdims=True)
        normalized = np.zeros_like(grid)
        np.divide(grid, sums, out=normalized, where=sums > 0)
        matrices[tag] = TrustMatrix(rows=template.rows, cols=template.cols,
                                    row_ids=template.row_ids, col_ids=template.col_ids,
                                    values=normalized)
    report = RebuildReport(records=len(table), dropped_diagonal=sum(dropped.values()),
                           dropped_by_tag=dropped)
    return matrices, report


def trust_network_from_tags(matrices: Mapping[str, TrustMatrix]) -> TrustNetwork:
    intra = {}
    inter = {}
    for tag, matrix in matrices.items():
        rows, cols = _TAG_LAYERS[tag]
        if rows is cols:
            intra[rows] = matrix
        else:
            inter[(rows, cols)] = matrix
    return TrustNetwork(intra=intra, inter=inter)


def stress_compare(true_scores: Mapping[LayerId, LayerScores],
                   synthetic_scores: Mapping[LayerId, LayerScores],
                   ks: Mapping[LayerId, Sequence[int]] | None = None,
                   scenario: str = "stress") -> list[MetricsReport]:
    """Per-layer metric rows comparing rescored synthetic scores to the originals."""
    reports: list[MetricsReport] = []
    for layer in true_scores:
        true_vec = true_scores[layer].result.scores
        synth_vec = synthetic_scores[layer].result.scores
        truth = dict(zip(true_vec.entity_ids, true_vec.values.tolist()))
        scored = dict(zip(synth_vec.entity_ids, synth_vec.values.tolist()))
        layer_ks: list[int | None] = [k for k in (ks or {}).get(layer, []) if 1 <= k <= len(truth)]
        if not layer_ks:
            layer_ks = [None]
        for k in layer_ks:
            reports.append(build_report(layer.value, "synthetic_scores", scenario,
                                        scored, truth, k=k))
    return reports


@dataclass(frozen=True)
class StressRun:
    """Everything one seeded stress round produced."""

    seed: int
    reports: list[MetricsReport]
    rebuild: RebuildReport
    #: (tag, src, dst, true trust, synthetic trust) for scatter plots
    pairs: list[tuple[str, str, str, float, float]]
    scores: dict[LayerId, LayerScores]


def run_stress(
    trusts: TrustNetwork,
    true_scores: Mapping[LayerId, LayerScores],
    generator: GeneratorConfig,
    seeds: Sequence[int],
    convergence: ConvergenceConfig = ConvergenceConfig(),
    damping: float = 1.0,
    department_feed: LayerId = LayerId.HOSPITAL,
    ks: Mapping[LayerId, Sequence[int]] | None = None,
) -> list[StressRun]:
    """Run the full stress loop once per seed, rescoring with the same
    residuals and propagation settings as the original run."""
    table = export_edge_table(trusts.all_matrices())
    shapes = trusts.by_tag()
    residuals = {layer: scores.residual for layer, scores in true_scores.items()}
    runs: list[StressRun] = []
    for seed in seeds:
        config = GeneratorConfig(method=generator.method,
                                 concentration=generator.concentration, seed=seed)
        synth_table = generate_synthetic(table, config)
        rebuilt, rebuild_report = rebuild_trust(synth_table, shapes)
        synth_trusts = trust_network_from_tags(rebuilt)
        synth_scores = score_network(synth_trusts, residuals, convergence,
                                     damping, department_feed)
        reports = stress_compare(true_scores, synth_scores, ks,
                                 scenario=f"{generator.method.value}/seed={seed}")
        pairs = [(t.layer_tag, t.src, t.dst, t.trust, s.trust)
                 for t, s in zip(table, synth_table)]
        runs.append(StressRun(seed=seed, reports=reports, rebuild=rebuild_report,
                              pairs=pairs, scores=synth_scores))
    return runs
