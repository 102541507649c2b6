"""Synthetic stress pipeline: export trust edges, regenerate them, rebuild, rescore.

The trust matrices flatten to a columnar edge table (one row per positive cell). A
generator rewrites the trust values — identity copy, Dirichlet perturbation
around each source row, or bootstrap resampling within a layer — and the table
is pivoted back into matrices, renormalized over their cells, and scored
again. An exported table carries the matrices its records came from, whose
cells locate each record, so each seed only redraws the values and divides
them by their new row sums. Such a table builds
the string columns that name its records (tag, src, dst) only when one is read:
writing it does, a stress run does not. A Dirichlet seed
draws the gammas of all its rows in one call and scales each row by its sum's
reciprocal, bit for bit what ``rng.dirichlet`` gives row by row. Comparing the
rescored network against the original quantifies how much the scoring pipeline
leans on the exact trust values. ``write_edge_table`` and ``read_edge_table``
keep the edge table's CSV format here, on :mod:`bundle`'s one CSV codec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bundle import format_float, read_csv, write_csv
from .errors import ConfigError, InputError, MalformedRowError
from .metrics import MetricsReport, layer_reports
from .model import INTER_LAYER_PAIRS, LAYERS, LayerId, TrustMatrix, from_cells, row_sums
from .scoring import ConvergenceConfig, LayerScores, is_int, is_real, score_network
from .trust import TrustNetwork, _checked_sums, _divide_cells

EDGE_TABLE_SCHEMA = "trust-edges/1"
_EDGE_HEADER = ("layer", "src", "dst", "trust")

#: matrix tags: h/d/p for the intra-layer matrices, hd/dh/dp/pd for the inter-layer ones
_TAGS = frozenset([layer.tag for layer in LAYERS] + [a.tag + b.tag for a, b in INTER_LAYER_PAIRS]
                  + [b.tag + a.tag for a, b in INTER_LAYER_PAIRS])


@dataclass(frozen=True, eq=False)
class _Support:
    """The matrices :func:`export_edge_table` read a table's records from.

    Per tag: the source matrix, whose ids and read-only ``cells`` locate the tag's
    records, and those records, which are contiguous (empty matrices have none).
    Records that share a (tag, src) row are contiguous too: row ``i`` runs from
    ``bounds[i]`` to ``bounds[i + 1]``, and the last bound is the table's length.
    The records' names are built from the cells on first read, once for every
    table that carries this support.
    """

    matrices: dict[str, TrustMatrix]
    slices: dict[str, slice]
    bounds: np.ndarray

    @cached_property
    def names(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _names(list(self.matrices.values()))


def _read_only(column, dtype) -> np.ndarray:
    column = np.asarray(column, dtype=dtype)
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False, init=False)
class EdgeTable:
    """Trust cells as four parallel read-only columns: matrix tag, source id,
    target id (object arrays of ``str``) and trust (float64).

    Trust must be finite and non-negative: a synthetic draw may underflow to
    zero, and rebuild treats a zero as an absent cell. A table from
    :func:`export_edge_table`, and the generators' copies of it, carry the
    matrices its records came from; they pass None for tag, src and dst, and name
    their records only when one of those columns is first read.
    """

    trust: np.ndarray
    #: set only on tables from export_edge_table and the generators' copies of them
    _support: _Support | None = field(repr=False)
    #: the tag, src and dst columns of a table without support
    _names: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(repr=False)

    def __init__(self, tag, src, dst, trust, *, _support: _Support | None = None):
        names = None if _support else tuple(_read_only(c, object) for c in (tag, src, dst))
        object.__setattr__(self, "trust", _read_only(trust, float))
        object.__setattr__(self, "_support", _support)
        object.__setattr__(self, "_names", names)
        if self.trust.ndim != 1 or any(c.shape != self.trust.shape for c in names or ()):
            raise InputError("edge table columns must be 1-dimensional and of equal length")
        # a table with cells has the tags of the matrices those cells came from
        unknown = set(_support.slices if _support else self.tag.tolist()) - _TAGS
        if unknown:
            raise InputError(f"unknown layer tag {min(unknown)!r}")
        self._refuse(~(np.isfinite(self.trust) & (self.trust >= 0)), "finite and non-negative")

    @property
    def tag(self) -> np.ndarray:
        return (self._names or self._support.names)[0]

    @property
    def src(self) -> np.ndarray:
        return (self._names or self._support.names)[1]

    @property
    def dst(self) -> np.ndarray:
        return (self._names or self._support.names)[2]

    def __len__(self) -> int:
        return len(self.trust)

    def _refuse(self, bad: np.ndarray, rule: str) -> None:
        if bad.any():
            k = int(np.argmax(bad))
            raise InputError(f"edge trust must be {rule}, got {self.trust[k]} "
                             f"({self.tag[k]}: {self.src[k]}->{self.dst[k]})")


def _groups(*columns: np.ndarray) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """The table's rows grouped by their key, a tuple across ``columns``: the keys in
    first-appearance order, the row indices group by group (each group in table order),
    and the bounds of each group among them. A key's rows usually run together, so only
    the first row of each run is looked up by key; numpy does the rest."""
    size = len(columns[0])
    starts = np.zeros(size, dtype=bool)
    starts[:1] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(starts)
    codes: dict = {}
    run_keys = zip(*(column[starts].tolist() for column in columns))
    group = np.repeat(np.fromiter((codes.setdefault(key, len(codes)) for key in run_keys),
                                  dtype=np.intp, count=len(starts)),
                      np.diff(np.append(starts, size)))
    bounds = np.append(0, np.cumsum(np.bincount(group, minlength=len(codes))))
    return list(codes), np.argsort(group, kind="stable"), bounds


def _tag_groups(table: EdgeTable) -> dict:
    """Each tag's records (a slice or row indices); tags in first-appearance order."""
    if table._support:
        return table._support.slices
    keys, order, bounds = _groups(table.tag)
    return {tag: order[a:b] for (tag,), a, b in zip(keys, bounds[:-1], bounds[1:])}


def _positions(ids: Sequence[str], column: Sequence[str]) -> np.ndarray:
    """Index of each id of ``column`` in ``ids``, -1 where it is absent."""
    index = {name: i for i, name in enumerate(ids)}
    return np.fromiter(map(index.get, column, repeat(-1)), dtype=np.intp, count=len(column))


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
    """Flatten trust matrices to an edge table, row-major, skipping zero cells.

    When each matrix has its own tag and no repeated id, the table carries the
    matrices it was read from, so a (tag, src) row or a tag is a contiguous run
    of records, and it names its records only when they are read.
    """
    matrices = list(matrices)
    if not matrices:
        return EdgeTable([], [], [], [])
    trust = np.concatenate([m.cells[2] for m in matrices])
    if len({m.tag for m in matrices}) < len(matrices) or any(
            len(set(ids)) < len(ids) for m in matrices for ids in (m.row_ids, m.col_ids)):
        return EdgeTable(*_names(matrices), trust)
    counts = [len(m.cells[2]) for m in matrices]
    ends = np.cumsum([0] + counts).tolist()
    slices = {m.tag: slice(a, b) for m, a, b in zip(matrices, ends, ends[1:]) if b > a}
    # rows of all matrices are numbered in table order, so a row starts where the number changes
    offsets = np.cumsum([0] + [len(m.row_ids) for m in matrices[:-1]])
    row = np.concatenate([m.cells[0] for m in matrices]) + np.repeat(offsets, counts)
    bounds = np.append(np.flatnonzero(np.diff(row, prepend=-1)), len(trust))
    return EdgeTable(None, None, None, trust, _support=_Support(
        matrices={m.tag: m for m in matrices}, slices=slices, bounds=bounds))


def _names(matrices: Sequence[TrustMatrix]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tag, src and dst columns of the matrices' nonzero cells, in table order."""
    row, col = (np.concatenate(c) for c in zip(*(m.cells[:2] for m in matrices)))
    which = np.repeat(np.arange(len(matrices)), [len(m.cells[2]) for m in matrices])
    tag = np.array([m.tag for m in matrices], dtype=object)[which]
    src = _joined([m.row_ids for m in matrices], which, row)
    dst = _joined([m.col_ids for m in matrices], which, col)
    return tuple(_read_only(column, object) for column in (tag, src, dst))


def _joined(ids: list[Sequence[str]], which: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Id ``index[k]`` of list ``which[k]`` for each record ``k``, gathered from one
    object array of all the lists."""
    offsets = np.cumsum([0] + [len(names) for names in ids])[which]
    return np.array([name for names in ids for name in names], dtype=object)[index + offsets]


def write_edge_table(table: EdgeTable, path) -> None:
    """Write the table as a CSV artifact: 12 significant digits of trust, which must be positive."""
    table._refuse(table.trust == 0, f"positive to be written to {path}")
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
        order, bounds = _rows(table)
        trust[order] = _dirichlet_rows(rng, config.concentration * table.trust[order], bounds)
    else:
        for group in _tag_groups(table).values():
            values = table.trust[group]
            trust[group] = rng.choice(values, size=len(values), replace=True)
    # a carried copy shares its support, and so the names it builds once read
    return EdgeTable(*(table._names or (None,) * 3), trust, _support=table._support)


def _rows(table: EdgeTable) -> tuple[np.ndarray | slice, np.ndarray]:
    """The table's records ordered by (tag, src) row, rows in first-appearance order,
    and the bounds of each row in that order."""
    if table._support:
        return slice(None), table._support.bounds
    return _groups(table.tag, table.src)[1:]


def _dirichlet_rows(rng: np.random.Generator, alpha: np.ndarray,
                    bounds: np.ndarray) -> np.ndarray:
    """Draw each row ``alpha[bounds[i]:bounds[i + 1]]`` in turn as ``rng.dirichlet``
    draws it, bit for bit, with one gamma call per stretch of rows.

    numpy's Dirichlet draws a standard gamma for each alpha in order, adds them up
    in that order and multiplies each by the sum's reciprocal; ``np.bincount``
    adds in the same order. A row whose largest alpha is below 0.1 numpy draws by
    stick-breaking instead, so that row goes to ``rng.dirichlet`` in its place.
    """
    lengths = np.diff(bounds)
    run = np.repeat(np.arange(len(lengths)), lengths)
    small = (np.maximum.reduceat(alpha, bounds[:-1]) < 0.1 if len(alpha)
             else np.zeros(0, dtype=bool))
    drawn = np.empty_like(alpha)
    done = 0
    for start, end in zip(bounds[:-1][small].tolist(), bounds[1:][small].tolist()):
        if done < start:  # an empty call costs about what a short row's dirichlet call does
            drawn[done:start] = rng.standard_gamma(alpha[done:start])
        drawn[start:end] = rng.dirichlet(alpha[start:end])
        done = end
    drawn[done:] = rng.standard_gamma(alpha[done:])
    scale = np.divide(1.0, np.bincount(run, weights=drawn), out=np.ones(len(lengths)),
                      where=~small)
    return drawn * scale[run]


@dataclass(frozen=True)
class RebuildReport:
    """What the pivot back into matrices had to do."""

    records: int
    dropped_diagonal: int
    dropped_by_tag: dict[str, int] = field(default_factory=dict)


def rebuild_trust(table: EdgeTable,
                  shapes: Mapping[str, TrustMatrix]) -> tuple[dict[str, TrustMatrix], RebuildReport]:
    """Pivot an edge table back into row-stochastic trust matrices.

    Cells absent from the table are zero; a cell given twice raises
    InputError. Records on an intra-layer diagonal are dropped and counted,
    since self-trust is structurally excluded. Every row is renormalized, so
    record values only set row proportions, and each rebuilt matrix keeps its
    cells, as derived trust does. Records are found in each matrix by their
    ids, unless the table carries a source matrix with that matrix's very ids:
    then they are its cells, already checked and row-major.
    """
    support = table._support
    by_tag = _tag_groups(table)
    missing = [tag for tag in by_tag if tag not in shapes]
    if missing:
        raise InputError(f"record tag {missing[0]!r} has no target matrix")
    matrices: dict[str, TrustMatrix] = {}
    dropped: dict[str, int] = {}
    for tag, template in shapes.items():
        group = by_tag.get(tag, np.zeros(0, dtype=np.intp))
        source = support.matrices.get(tag) if support else None
        carried = source is not None and (
            (source.row_ids, source.col_ids) == (template.row_ids, template.col_ids))
        if carried:
            rows, cols = source.cells[:2]
        else:
            src, dst = table.src[group], table.dst[group]
            rows, cols = _positions(template.row_ids, src), _positions(template.col_ids, dst)
            outside = np.flatnonzero((rows < 0) | (cols < 0))
            if outside.size:
                k = outside[0]
                raise InputError(f"{tag}: record ({src[k]},{dst[k]}) falls outside the matrix ids")
        values = table.trust[group]
        if template.is_intra:
            # src equals dst by name where the column is the row id's place among the col ids
            keep = cols != _positions(template.col_ids, template.row_ids)[rows]
            if not keep.all():
                dropped[tag] = int((~keep).sum())
                rows, cols, values = rows[keep], cols[keep], values[keep]
        if not carried:  # a source matrix's own cells are already checked and row-major
            rows, cols, values = from_cells(template.shape, rows, cols, values, f"{tag} edges")
        sums = _checked_sums(row_sums((rows, cols, values), template.shape), tag,
                             template.row_ids)
        matrices[tag] = TrustMatrix(template.rows, template.cols, template.row_ids,
                                    template.col_ids, cells=_divide_cells(rows, cols, values, sums))
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
