"""Synthetic stress pipeline: export trust edges, regenerate them, rebuild, rescore.

The trust matrices flatten to a columnar edge table (one row per positive cell). A
generator rewrites the trust values — identity copy, Dirichlet perturbation
around each source row, or bootstrap resampling within a layer — and the table
is pivoted back into matrices, renormalized, and scored again. Comparing the
rescored network against the original quantifies how much the scoring pipeline
leans on the exact trust values.
"""
from __future__ import annotations

import csv
import math
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
from .model import LayerId, TrustMatrix
from .scoring import ConvergenceConfig, LayerScores, is_int, is_real, score_network
from .trust import TrustNetwork, _normalize_rows

EDGE_TABLE_SCHEMA = "trust-edges/1"
_EDGE_HEADER = ["layer", "src", "dst", "trust"]

#: matrix tags: h/d/p for the intra-layer matrices, hd/dh/dp/pd for the inter-layer ones
_TAGS = frozenset({"h", "d", "p", "hd", "dh", "dp", "pd"})


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Trust cells as four parallel read-only columns: matrix tag, source id,
    target id (object arrays of ``str``) and trust (float64).

    Trust must be finite and non-negative: a synthetic draw may underflow to
    zero, and rebuild treats a zero as an absent cell.
    """

    tag: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    trust: np.ndarray

    def __post_init__(self):
        for name in ("tag", "src", "dst", "trust"):
            column = np.asarray(getattr(self, name), dtype=float if name == "trust" else object)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        shapes = {self.tag.shape, self.src.shape, self.dst.shape, self.trust.shape}
        if self.trust.ndim != 1 or len(shapes) != 1:
            raise InputError("edge table columns must be 1-dimensional and of equal length")
        unknown = set(self.tag.tolist()) - _TAGS
        if unknown:
            raise InputError(f"unknown layer tag {min(unknown)!r}")
        bad = np.flatnonzero(~(np.isfinite(self.trust) & (self.trust >= 0)))
        if bad.size:
            k = bad[0]
            raise InputError(f"edge trust must be finite and non-negative, got {self.trust[k]} "
                             f"({self.tag[k]}: {self.src[k]}->{self.dst[k]})")

    def __len__(self) -> int:
        return len(self.trust)


def _groups(keys: Sequence) -> dict:
    """Row indices of each distinct key, in table order; keys in first-appearance order."""
    codes: dict = {}
    inverse = np.fromiter((codes.setdefault(key, len(codes)) for key in keys),
                          dtype=np.intp, count=len(keys))
    bounds = np.cumsum(np.bincount(inverse, minlength=len(codes)))[:-1]
    return dict(zip(codes, np.split(np.argsort(inverse, kind="stable"), bounds)))


def _positions(ids: Sequence[str], column: np.ndarray) -> np.ndarray:
    """Index of each id of ``column`` in ``ids``, -1 where it is absent."""
    index = {name: i for i, name in enumerate(ids)}
    return np.fromiter((index.get(name, -1) for name in column), dtype=np.intp, count=len(column))


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
        if not is_real(self.concentration) or self.concentration <= 0:
            raise InvalidConfigError(
                f"concentration must be a positive number, got {self.concentration!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise InvalidConfigError("generator seed must be a non-negative integer")


def export_edge_table(matrices: Iterable[TrustMatrix]) -> EdgeTable:
    """Flatten trust matrices to an edge table, row-major, skipping zero cells."""
    tags, srcs, dsts, values = [], [], [], []
    for matrix in matrices:
        rows, cols = np.nonzero(matrix.values > 0)
        tags.append(np.full(len(rows), matrix.tag, dtype=object))
        srcs.append(np.asarray(matrix.row_ids, dtype=object)[rows])
        dsts.append(np.asarray(matrix.col_ids, dtype=object)[cols])
        values.append(matrix.values[rows, cols])
    columns = (tags, srcs, dsts, values)
    return EdgeTable(*(np.concatenate(column) if column else [] for column in columns))


def write_edge_table(table: EdgeTable, path) -> None:
    """Write the table as CSV with 12 significant digits of trust; a field
    holding a comma, a quote or a line break is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# schema: {EDGE_TABLE_SCHEMA}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_EDGE_HEADER)
        writer.writerows(zip(table.tag, table.src, table.dst,
                             (f"{value:.12g}" for value in table.trust.tolist())))


def read_edge_table(path) -> EdgeTable:
    """Read a table written by :func:`write_edge_table`; every trust value
    must be positive and finite."""
    columns: tuple[list, ...] = ([], [], [], [])
    with open(path, encoding="utf-8", newline="") as handle:
        marker = handle.readline().strip()
        if marker != f"# schema: {EDGE_TABLE_SCHEMA}":
            raise SchemaVersionError(f"{path}: expected schema {EDGE_TABLE_SCHEMA!r}, found {marker!r}")
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _EDGE_HEADER:
            raise MalformedRowError(str(path), 2, f"unexpected header {header!r}")
        for row in filter(None, reader):
            try:
                tag, src, dst, raw = row
                trust = float(raw)
            except ValueError:
                raise MalformedRowError(str(path), reader.line_num + 1,
                                        f"expected layer,src,dst,trust, got {row!r}") from None
            if tag not in _TAGS or not 0 < trust < math.inf:
                raise MalformedRowError(str(path), reader.line_num + 1,
                                        f"unknown layer tag or non-positive trust in {row!r}")
            for column, value in zip(columns, (tag, src, dst, trust)):
                column.append(value)
    return EdgeTable(*columns)


def generate_synthetic(table: EdgeTable, config: GeneratorConfig) -> EdgeTable:
    """Rewrite the trust values of an edge table, keeping its (src, dst) support.

    identity returns the table itself. dirichlet redraws each source row from
    Dirichlet(concentration * row values), so larger concentrations hug the
    original distribution. bootstrap resamples values with replacement within
    each layer tag. Rows and tags draw in first-appearance order.
    """
    if not len(table):
        raise EmptyTableError("cannot generate from an empty edge table")
    if config.method is GeneratorMethod.IDENTITY:
        return table

    rng = np.random.default_rng(config.seed)
    trust = np.empty_like(table.trust)
    if config.method is GeneratorMethod.DIRICHLET:
        for group in _groups(list(zip(table.tag, table.src))).values():
            trust[group] = rng.dirichlet(config.concentration * table.trust[group])
    else:
        for group in _groups(table.tag).values():
            trust[group] = rng.choice(table.trust[group], size=len(group), replace=True)
    return EdgeTable(table.tag, table.src, table.dst, trust)


@dataclass(frozen=True)
class RebuildReport:
    """What the pivot back into matrices had to do."""

    records: int
    dropped_diagonal: int
    dropped_by_tag: dict[str, int] = field(default_factory=dict)


def rebuild_trust(table: EdgeTable,
                  shapes: Mapping[str, TrustMatrix]) -> tuple[dict[str, TrustMatrix], RebuildReport]:
    """Pivot an edge table back into row-stochastic trust matrices.

    Cells absent from the table are zero-filled. Records landing on an
    intra-layer diagonal are dropped and counted (self-trust is structurally
    excluded). Every row is renormalized, so record values only set row
    proportions.
    """
    by_tag = _groups(table.tag)
    missing = [tag for tag in by_tag if tag not in shapes]
    if missing:
        raise OutOfShapeError(f"record tag {missing[0]!r} has no target matrix")
    matrices: dict[str, TrustMatrix] = {}
    dropped: dict[str, int] = {}
    for tag, template in shapes.items():
        group = by_tag.get(tag, np.zeros(0, dtype=np.intp))
        src, dst = table.src[group], table.dst[group]
        rows, cols = _positions(template.row_ids, src), _positions(template.col_ids, dst)
        outside = np.flatnonzero((rows < 0) | (cols < 0))
        if outside.size:
            k = outside[0]
            raise OutOfShapeError(f"{tag}: record ({src[k]},{dst[k]}) falls outside the matrix ids")
        keep = ~((src == dst) & template.is_intra)
        if not keep.all():
            dropped[tag] = int((~keep).sum())
        grid = np.zeros(template.shape)
        grid[rows[keep], cols[keep]] = table.trust[group][keep]
        matrices[tag] = TrustMatrix(rows=template.rows, cols=template.cols,
                                    row_ids=template.row_ids, col_ids=template.col_ids,
                                    values=_normalize_rows(grid))
    report = RebuildReport(records=len(table), dropped_diagonal=sum(dropped.values()),
                           dropped_by_tag=dropped)
    return matrices, report


def trust_network_from_tags(matrices: Mapping[str, TrustMatrix]) -> TrustNetwork:
    return TrustNetwork(intra={m.rows: m for m in matrices.values() if m.is_intra},
                        inter={(m.rows, m.cols): m for m in matrices.values() if not m.is_intra})


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
    #: the exported table every run starts from, shared by all runs
    edges: EdgeTable
    #: this run's regenerated table, row-aligned with ``edges``
    synthetic: EdgeTable
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
        runs.append(StressRun(seed=seed, reports=reports, rebuild=rebuild_report,
                              edges=table, synthetic=synth_table, scores=synth_scores))
    return runs
