"""Core network types: layers, adjacency blocks, trust matrices, score vectors.

A network always has exactly three layers (hospitals, departments, doctors).
Intra-layer blocks are square and index both of their axes by one layer's node
order; inter-layer blocks exist only where a belongs-to relation exists
(hospital<-department and department<-doctor). Node order within a layer is the
lexicographic order of the entity identifiers and is fixed when the network is
built.

Blocks and trust matrices are both stored as their cells: row indices, column
indices and values of the nonzero cells, row-major, read-only. The builder,
the bundle loader, trust derivation and stress rebuilds make every matrix from
its cells, and a dense array (``AdjacencyBlock.weights``,
``TrustMatrix.values``) is built only when something reads it, then cached.
``AdjacencyBlock`` and ``TrustMatrix`` share one base, ``_LabelledMatrix``,
which owns the row and column labels, everything read from them, the cells
and the constructor that takes either form. The moves between a matrix and its
cells (``nonzero_cells``, ``from_cells``), the row and column sums over cells
(``row_sums``, ``column_sums``) and the checks on cell values
(``cell_violations``) live here and nowhere else, and each grows with the
cells, not with the matrix. The sum order is set here once: a row's sum adds
its cells in column order and a column's sum adds its cells in row order, one
``np.bincount`` each. Trust divides by these sums and the overflow check
reads them, so the two cannot disagree about a sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError

ROW_SUM_TOL = 1e-9


class LayerId(Enum):
    """The three entity layers."""

    HOSPITAL = "hospital"
    DEPARTMENT = "department"
    DOCTOR = "doctor"

    @property
    def tag(self) -> str:
        """Short tag used in edge tables: h, d, or p."""
        return {"hospital": "h", "department": "d", "doctor": "p"}[self.value]


LAYERS = (LayerId.HOSPITAL, LayerId.DEPARTMENT, LayerId.DOCTOR)

#: Layer pairs that carry a belongs-to relation, in (row, col) order.
INTER_LAYER_PAIRS = (
    (LayerId.HOSPITAL, LayerId.DEPARTMENT),
    (LayerId.DEPARTMENT, LayerId.DOCTOR),
)


def _freeze_matrix(instance, attr: str, label: str) -> None:
    """Store ``instance.attr`` as a read-only float matrix shaped by its row and column ids."""
    arr = np.asarray(getattr(instance, attr), dtype=float)
    expected = instance.shape
    if arr.shape != expected:
        raise InputError(f"{label}: {attr} shape {arr.shape} does not match "
                         f"{expected[0]} row ids x {expected[1]} col ids")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    object.__setattr__(instance, attr, arr)


def nonzero_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of a matrix's nonzero cells, row-major."""
    # one search of a flat boolean mask: np.nonzero on a 2-D float array is about 5x slower
    flat = np.flatnonzero(values != 0)
    rows, cols = np.unravel_index(flat, values.shape)
    return rows, cols, values.ravel()[flat]


def _holds_bool(given, array: np.ndarray) -> bool:
    """Whether a cell list holds a bool, which numpy reads as a number next to numbers."""
    return array.dtype.kind == "b" or (not isinstance(given, np.ndarray)
                                       and bool in map(type, given))


def from_cells(shape: tuple[int, int], rows, cols, values,
               label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The given cells, checked, row-major and read-only, with zero-valued cells left out.

    Raises InputError unless the cells are three equal-length 1-dimensional
    sequences of integer indices inside ``shape`` and numbers (no bools), each
    cell given once.
    """
    given = rows, cols, values
    rows, cols, values = (np.asarray(array) for array in given)
    if not (rows.ndim == cols.ndim == values.ndim == 1 and len(rows) == len(cols) == len(values)):
        raise InputError(f"{label}: row, col and value must be lists of equal length")
    for index, size, raw in ((rows, shape[0], given[0]), (cols, shape[1], given[1])):
        if index.size and not (index.dtype.kind in "iu" and 0 <= index.min() <= index.max() < size
                               and not _holds_bool(raw, index)):
            raise InputError(f"{label}: a cell index is not an integer inside the "
                             f"{shape[0]}x{shape[1]} matrix")
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    if values.size and (values.dtype.kind not in "iuf" or _holds_bool(given[2], values)):
        raise InputError(f"{label}: a cell value is not a number")
    keys = rows * shape[1] + cols
    if not (keys[1:] > keys[:-1]).all():  # not already row-major, each cell once
        order = np.argsort(keys)
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise InputError(f"{label}: a cell is given more than once")
        rows, cols, values = rows[order], cols[order], values[order]
    kept = values != 0
    return _read_only((rows[kept], cols[kept], values[kept].astype(float, copy=False)))


def row_sums(cells: tuple[np.ndarray, np.ndarray, np.ndarray],
             shape: tuple[int, int]) -> np.ndarray:
    """Each row's sum of row-major cells, as float64: one ``np.bincount``, which adds a
    row's cells in column order. Rows without cells sum to 0, and a sum past the float
    range is inf (or NaN, where cells cancel), without a warning."""
    return np.bincount(cells[0], weights=cells[2], minlength=shape[0]).astype(float, copy=False)


def column_sums(cells: tuple[np.ndarray, np.ndarray, np.ndarray],
                shape: tuple[int, int]) -> np.ndarray:
    """Each column's sum of row-major cells, as :func:`row_sums` takes a row's: one
    ``np.bincount``, which adds a column's cells in row order."""
    return np.bincount(cells[1], weights=cells[2], minlength=shape[1]).astype(float, copy=False)


def _first_asymmetry(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     n: int) -> tuple[int, int] | None:
    """Row and column of the first place, row-major, where a square matrix given as
    row-major cells differs from its transpose (an absent cell holds 0, and NaN differs
    from itself), or None. The lower triangle's cells, stably sorted by column, are in
    the row-major order of their mirror images, which a symmetric matrix's upper cells
    match one for one, so only the lower half is sorted; any other matrix is searched
    cell by cell."""
    upper, lower = rows < cols, rows > cols
    lower_cols = cols[lower]
    # the columns in the narrowest type that holds them: numpy sorts 16-bit integers stably
    # by radix, on a 1 063-wide block with 90 900 lower cells in 0.7 ms against 4 ms as int64
    order = np.argsort(lower_cols.astype(np.min_scalar_type(n)), kind="stable")
    if (np.array_equal(rows[upper], lower_cols[order])
            and np.array_equal(cols[upper], rows[lower][order])
            and np.array_equal(values[upper], values[lower][order])
            and not np.isnan(values).any()):
        return None
    keys, mirror = rows * n + cols, cols * n + rows
    at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    found = keys[at] == mirror
    differs = values != np.where(found, values[at], 0.0)
    return divmod(int(np.concatenate([keys[differs], mirror[~found]]).min()), n)


def _first(hits: np.ndarray) -> int | None:
    """Index of the first True of ``hits``, or None."""
    return int(np.argmax(hits)) if hits.any() else None


def cell_violations(label: str, cells: tuple[np.ndarray, np.ndarray, np.ndarray],
                    row_ids: Sequence[str], col_ids: Sequence[str], *, square: bool,
                    symmetric: bool = False, stochastic: bool = False) -> list[str]:
    """Describe the cells that break a labelled matrix's invariants (empty when sound).

    ``cells`` are the matrix's row-major cells, each given once and none zero.
    Every cell must be finite and non-negative, and a square matrix (rows and
    columns index one layer) has a zero diagonal. ``symmetric`` also requires
    the matrix to equal its transpose; ``stochastic`` requires cells of at most
    1 and rows summing to 0 or 1 within ROW_SUM_TOL; any other matrix's rows
    and columns, which trust divides by their sums, must sum inside the float
    range. Each kind of bad cell or sum is reported at its first hit, row-major
    (rows before columns), except diagonal cells and row sums, which are all
    reported. Every sum is :func:`row_sums`' or :func:`column_sums`', the ones
    trust divides by.
    """
    rows, cols, values = cells
    shape = len(row_ids), len(col_ids)
    noun = "value" if stochastic else "weight"

    def cell(i, j) -> str:
        return f"({row_ids[i]},{col_ids[j]})"

    def value(i, j):
        at = np.flatnonzero((rows == i) & (cols == j))
        return values[at[0]] if at.size else 0.0

    out = []
    if (nonfinite := _first(~np.isfinite(values))) is not None:
        out.append(f"{label}: non-finite {noun} {values[nonfinite]} at "
                   f"{cell(rows[nonfinite], cols[nonfinite])}")
    if (k := _first(values < 0)) is not None:
        out.append(f"{label}: negative {noun} at {cell(rows[k], cols[k])}")
    if square:
        out += [f"{label}: nonzero diagonal at {cell(i, i)}" for i in rows[rows == cols]]
    if symmetric and (hit := _first_asymmetry(rows, cols, values, shape[0])) is not None:
        i, j = hit
        out.append(f"{label}: asymmetric at {cell(i, j)}={value(i, j)} "
                   f"vs {cell(j, i)}={value(j, i)}")
    if stochastic:
        if (k := _first(values > 1 + ROW_SUM_TOL)) is not None:
            out.append(f"{label}: {noun} above 1 at {cell(rows[k], cols[k])}")
        out += [f"{label}: row {row_ids[i]} sums to {total}, not 0 or 1"
                for i, total in enumerate(row_sums(cells, shape).tolist())
                if total != 0.0 and abs(total - 1.0) > ROW_SUM_TOL]
    elif nonfinite is None:
        for sums, name, ids in ((row_sums, "row", row_ids), (column_sums, "column", col_ids)):
            if (k := _first(~np.isfinite(sums(cells, shape)))) is not None:
                out.append(f"{label}: the {noun}s in {name} {ids[k]} sum past the float range")
                break
    return out


def _read_only(cells: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for array in cells:
        array.setflags(write=False)
    return tuple(cells)


def _dense_view(matrix: _LabelledMatrix) -> np.ndarray:
    """A matrix's dense form, zero-filled around its cells, built on first read, read-only."""
    rows, cols, values = matrix.cells
    dense = np.zeros(matrix.shape)
    dense[rows, cols] = values
    dense.setflags(write=False)
    return dense


@dataclass(frozen=True, init=False, eq=False)
class _LabelledMatrix:
    """A matrix whose rows are one layer's entities and whose columns are another's.

    The labels (``rows``, ``cols``, ``row_ids``, ``col_ids``) and what they
    imply (``is_intra``, ``tag``, ``shape``) live here, and so do the matrix's
    ``cells``. A matrix is given either its dense matrix, named by each
    subclass's ``_MATRIX`` and frozen by :func:`_freeze_matrix` to the ids'
    shape, or its ``cells``, unchecked: row indices, column indices and values,
    row-major, each cell once and none zero, as :func:`nonzero_cells` finds them
    and :func:`from_cells` returns them. Whichever it lacks it builds on first
    read and caches read-only, so neither can go stale; a matrix with other
    values is a new instance. Each subclass adds the ``violations`` of its cells.
    """

    rows: LayerId
    cols: LayerId
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __init__(self, rows: LayerId, cols: LayerId, row_ids: tuple[str, ...],
                 col_ids: tuple[str, ...], dense: np.ndarray | None,
                 cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None):
        for name, given in (("rows", rows), ("cols", cols), ("row_ids", row_ids),
                            ("col_ids", col_ids)):
            object.__setattr__(self, name, given)
        if (dense is None) == (cells is None):
            raise InputError(f"{self._label}: give either its {self._MATRIX} or its cells")
        if cells is None:
            object.__setattr__(self, self._MATRIX, dense)
            _freeze_matrix(self, self._MATRIX, self._label)
        else:
            self.__dict__["cells"] = _read_only(cells)

    @property
    def is_intra(self) -> bool:
        return self.rows is self.cols

    @property
    def tag(self) -> str:
        """Edge-table tag: h/d/p for intra, hd/dh/dp/pd for inter."""
        return self.rows.tag if self.is_intra else self.rows.tag + self.cols.tag

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_ids), len(self.col_ids)

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`nonzero_cells` of a matrix given densely, found once and read-only: both
        trust directions of a block divide its cells, propagation reads a trust matrix's
        cells each step, and an edge table keeps the matrix and reads them each rebuild."""
        return _read_only(nonzero_cells(getattr(self, self._MATRIX)))


@dataclass(frozen=True, init=False, eq=False)
class AdjacencyBlock(_LabelledMatrix):
    """A weighted block of the supra-adjacency structure.

    Intra-layer blocks (rows == cols) hold attribute-overlap similarity counts;
    inter-layer blocks hold belongs-to weights. Value-level invariants
    (symmetry, zero diagonal, non-negativity) are reported by ``violations``
    rather than enforced here, so that a block built from bad data can be
    inspected instead of being unrepresentable. Which blocks a network holds,
    and their id order, :class:`MultiLayerNetwork` enforces at construction.

    The builder and the bundle loader give a block its cells, and nothing in
    the pipeline reads its dense ``weights``: build, load, validation, trust
    and rebuilds all work on the cells.
    """

    _MATRIX = "weights"

    def __init__(self, rows: LayerId, cols: LayerId, row_ids: tuple[str, ...],
                 col_ids: tuple[str, ...], weights: np.ndarray | None = None, *,
                 cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        super().__init__(rows, cols, row_ids, col_ids, weights, cells)

    weights = cached_property(_dense_view)

    @property
    def _label(self) -> str:
        return f"{self.rows.value}x{self.cols.value} block"

    def violations(self) -> list[str]:
        label = (f"{self.rows.value} intra block" if self.is_intra
                 else f"{self.rows.value}x{self.cols.value} block")
        return cell_violations(label, self.cells, self.row_ids, self.col_ids,
                               square=self.is_intra, symmetric=self.is_intra)


@dataclass(frozen=True, init=False, eq=False)
class TrustMatrix(_LabelledMatrix):
    """Row-stochastic trust derived from an adjacency block.

    Each row is the source entity's trust distribution over targets: rows sum
    to 1 within 1e-9, except rows whose source had no edges, which stay all
    zero. ``violations`` reports breaches instead of the constructor raising,
    for the same inspectability reason as AdjacencyBlock.

    Trust derived from a block, or rebuilt from an edge table, is given its
    cells, and builds its dense ``values`` only when something reads it: the
    dense product route and the closed form.
    """

    _MATRIX = "values"

    def __init__(self, rows: LayerId, cols: LayerId, row_ids: tuple[str, ...],
                 col_ids: tuple[str, ...], values: np.ndarray | None = None, *,
                 cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        super().__init__(rows, cols, row_ids, col_ids, values, cells)
        if cells is not None:
            self.__dict__["nonzero_count"] = len(cells[2])

    values = cached_property(_dense_view)

    @property
    def _label(self) -> str:
        return f"{self.tag} trust matrix"

    @cached_property
    def nonzero_count(self) -> int:
        """How many cells of ``values`` are nonzero, counted once."""
        return int(np.count_nonzero(self.values))

    def violations(self) -> list[str]:
        return cell_violations(f"{self.tag} trust", self.cells, self.row_ids, self.col_ids,
                               square=self.is_intra, stochastic=True)


class ScoreKind(Enum):
    RESIDUAL = "residual"
    INITIAL = "initial"
    SOCIAL = "social"


@dataclass(frozen=True)
class ScoreVector:
    """Per-entity scores for one layer, aligned with that layer's node order."""

    layer: LayerId
    kind: ScoreKind
    entity_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise InputError(f"score vector must be 1-dimensional, got shape {arr.shape}")
        if arr.shape[0] != len(self.entity_ids):
            raise InputError(
                f"{self.layer.value} {self.kind.value} scores: {arr.shape[0]} values for "
                f"{len(self.entity_ids)} entity ids"
            )
        if (bad := np.flatnonzero(~np.isfinite(arr))).size:
            raise InputError(f"{self.layer.value} {self.kind.value} scores: non-finite entry "
                             f"{arr[bad[0]]} for {self.entity_ids[bad[0]]}")
        if arr.size and (arr < 0).any():
            raise InputError(f"{self.layer.value} {self.kind.value} scores: negative entry")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.entity_ids)


@dataclass(frozen=True)
class MultiLayerNetwork:
    """The built network: each layer's node ids (``graphs``), the three intra
    blocks and the two belongs-to inter blocks, each block indexed by its
    layers' node ids in that order. ``columns`` holds each layer's ``rating``
    (None when unrated) and then its baselines, as float lists aligned with its
    node ids; the ``build`` command attaches them for ``eval``."""

    graphs: dict[LayerId, tuple[str, ...]]
    intra: dict[LayerId, AdjacencyBlock]
    inter: dict[tuple[LayerId, LayerId], AdjacencyBlock]
    provenance: dict = field(default_factory=dict)
    columns: dict[LayerId, dict[str, list]] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.graphs) != set(LAYERS):
            raise InputError(
                f"network must have exactly the three layers, got {sorted(l.value for l in self.graphs)}"
            )
        for layer, ids in self.graphs.items():
            if not all(isinstance(i, str) for i in ids):
                raise InputError(f"{layer.value} layer: node ids must be strings")
            if len(set(ids)) != len(ids):
                raise InputError(f"{layer.value} layer: duplicate node ids")
        if not isinstance(self.provenance, dict):
            raise InputError(f"network provenance must be a dict, "
                             f"got {type(self.provenance).__name__}")
        if set(self.intra) != set(LAYERS):
            raise InputError(f"network must have an intra block for each of the three layers, "
                             f"got {sorted(l.value for l in self.intra)}")
        if set(self.inter) != set(INTER_LAYER_PAIRS):
            raise InputError("network must have exactly the hospitalxdepartment and "
                             "departmentxdoctor blocks, got "
                             f"{sorted(f'{r.value}x{c.value}' for r, c in self.inter)}")
        blocks = {**{(layer, layer): block for layer, block in self.intra.items()}, **self.inter}
        for (rows, cols), block in blocks.items():
            if ((block.rows, block.cols, block.row_ids, block.col_ids)
                    != (rows, cols, self.node_ids(rows), self.node_ids(cols))):
                raise InputError(f"{rows.value}x{cols.value} block: ids do not match "
                                 f"the layers' node order")
        for layer, columns in self.columns.items():
            for name, values in columns.items():
                if not (isinstance(name, str) and isinstance(values, list)
                        and len(values) == len(self.node_ids(layer))
                        and all(isinstance(v, float) and math.isfinite(v)
                                or v is None and name == "rating" for v in values)):
                    raise InputError(f"{layer.value} column {name!r}: must list one finite "
                                     "number per node id (a rating may be null)")

    def node_ids(self, layer: LayerId) -> tuple[str, ...]:
        return self.graphs[layer]


def validate_network(network: MultiLayerNetwork) -> list[str]:
    """Check the cell values of the five blocks; return violation descriptions (empty when sound).

    The block structure is the constructor's to enforce. Violations are data
    for the caller, not failures: the function never raises on bad values and
    never mutates the network.
    """
    blocks = [network.intra[layer] for layer in LAYERS] + [network.inter[pair]
                                                           for pair in INTER_LAYER_PAIRS]
    return [problem for block in blocks for problem in block.violations()]
