"""Synthetic stress pipeline: export trust edges, regenerate them, rebuild, rescore.

The trust matrices flatten to a columnar edge table (one row per positive cell). A
generator rewrites the trust values — identity copy, Dirichlet perturbation
around each source row, or bootstrap resampling within a layer — and the table
is pivoted back into matrices, renormalized, and scored again. Comparing the
rescored network against the original quantifies how much the scoring pipeline
leans on the exact trust values. The edge table's CSV format, like every
artifact format, belongs to :mod:`bundle`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bundle import format_float, read_csv, write_csv
from .errors import ConfigError, InputError, MalformedRowError
from .metrics import MetricsReport, layer_reports
from .model import INTER_LAYER_PAIRS, LAYERS, LayerId, TrustMatrix, from_cells, nonzero_cells
from .scoring import ConvergenceConfig, LayerScores, is_int, is_real, score_network
from .trust import TrustNetwork, _normalize_rows

EDGE_TABLE_SCHEMA = "trust-edges/1"
_EDGE_HEADER = ("layer", "src", "dst", "trust")

#: matrix tags: h/d/p for the intra-layer matrices, hd/dh/dp/pd for the inter-layer ones
_TAGS = frozenset([layer.tag for layer in LAYERS] + [a.tag + b.tag for a, b in INTER_LAYER_PAIRS]
                  + [b.tag + a.tag for a, b in INTER_LAYER_PAIRS])


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
            raise ConfigError(f"unknown generator method {self.method!r}")
        if not is_real(self.concentration) or self.concentration <= 0:
            raise ConfigError(
                f"concentration must be a positive number, got {self.concentration!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError("generator seed must be a non-negative integer")


def export_edge_table(matrices: Iterable[TrustMatrix]) -> EdgeTable:
    """Flatten trust matrices to an edge table, row-major, skipping zero cells."""
    tags, srcs, dsts, values = [], [], [], []
    for matrix in matrices:
        rows, cols, cells = nonzero_cells(matrix.values)
        tags.append(np.full(len(rows), matrix.tag, dtype=object))
        srcs.append(np.asarray(matrix.row_ids, dtype=object)[rows])
        dsts.append(np.asarray(matrix.col_ids, dtype=object)[cols])
        values.append(cells)
    columns = (tags, srcs, dsts, values)
    return EdgeTable(*(np.concatenate(column) if column else [] for column in columns))


def write_edge_table(table: EdgeTable, path) -> None:
    """Write the table as a CSV artifact with 12 significant digits of trust."""
    write_csv(path, EDGE_TABLE_SCHEMA, _EDGE_HEADER,
              zip(table.tag, table.src, table.dst, map(format_float, table.trust.tolist())))


def read_edge_table(path) -> EdgeTable:
    """Read a table written by :func:`write_edge_table`; every trust value
    must be positive and finite."""
    columns: tuple[list, ...] = ([], [], [], [])
    for line, row in read_csv(path, EDGE_TABLE_SCHEMA, _EDGE_HEADER):
        tag, src, dst, raw = row
        try:
            trust = float(raw)
        except ValueError:
            raise MalformedRowError(str(path), line,
                                    f"trust is not a number in {row!r}") from None
        if tag not in _TAGS or not 0 < trust < math.inf:
            raise MalformedRowError(str(path), line,
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

    Cells absent from the table are zero-filled, and a cell given twice
    raises InputError. Records landing on an intra-layer diagonal are dropped
    and counted (self-trust is structurally excluded). Every row is renormalized, so record values only set row
    proportions.
    """
    by_tag = _groups(table.tag)
    missing = [tag for tag in by_tag if tag not in shapes]
    if missing:
        raise InputError(f"record tag {missing[0]!r} has no target matrix")
    matrices: dict[str, TrustMatrix] = {}
    dropped: dict[str, int] = {}
    for tag, template in shapes.items():
        group = by_tag.get(tag, np.zeros(0, dtype=np.intp))
        src, dst = table.src[group], table.dst[group]
        rows, cols = _positions(template.row_ids, src), _positions(template.col_ids, dst)
        outside = np.flatnonzero((rows < 0) | (cols < 0))
        if outside.size:
            k = outside[0]
            raise InputError(f"{tag}: record ({src[k]},{dst[k]}) falls outside the matrix ids")
        keep = ~((src == dst) & template.is_intra)
        if not keep.all():
            dropped[tag] = int((~keep).sum())
        grid = from_cells(template.shape, rows[keep], cols[keep], table.trust[group][keep],
                          f"{tag} edges")
        matrices[tag] = replace(template, values=_normalize_rows(grid))
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
        reports += layer_reports(layer.value, "synthetic_scores", scenario, scored, truth,
                                 (ks or {}).get(layer, []))
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
        synth_table = generate_synthetic(table, replace(generator, seed=seed))
        rebuilt, rebuild_report = rebuild_trust(synth_table, shapes)
        synth_trusts = trust_network_from_tags(rebuilt)
        synth_scores = score_network(synth_trusts, residuals, convergence,
                                     damping, department_feed)
        reports = stress_compare(true_scores, synth_scores, ks,
                                 scenario=f"{generator.method.value}/seed={seed}")
        runs.append(StressRun(seed=seed, reports=reports, rebuild=rebuild_report,
                              edges=table, synthetic=synth_table, scores=synth_scores))
    return runs
