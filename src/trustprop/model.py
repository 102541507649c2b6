"""Core network types: layers, adjacency blocks, trust matrices, score vectors.

A network always has exactly three layers (hospitals, departments, doctors).
Intra-layer blocks are square and index both of their axes by one layer's node
order; inter-layer blocks exist only where a belongs-to relation exists
(hospital<-department and department<-doctor). Node order within a layer is the
lexicographic order of the entity identifiers and is fixed when the network is
built.

Matrices are dense ``numpy`` arrays, frozen read-only after construction so
instances can be shared across threads. ``AdjacencyBlock`` and ``TrustMatrix``
share one base, ``_LabelledMatrix``, which owns the row and column labels and
everything read from them. That base is the one storage seam: a sparse backend
behind the ``weights``/``values`` attributes would slot in there. The moves
between a matrix and its nonzero cells (``nonzero_cells``, ``from_cells``) and
the checks on cell values (``cell_violations``) live here and nowhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


def from_cells(shape: tuple[int, int], rows, cols, values, label: str) -> np.ndarray:
    """Zero-filled matrix holding the given cells.

    Raises InputError unless the cells are three equal-length 1-dimensional
    sequences of integer indices inside ``shape`` and numbers, each cell given once.
    """
    rows, cols, values = np.asarray(rows), np.asarray(cols), np.asarray(values)
    if not (rows.ndim == cols.ndim == values.ndim == 1 and len(rows) == len(cols) == len(values)):
        raise InputError(f"{label}: row, col and value must be lists of equal length")
    for index, size in ((rows, shape[0]), (cols, shape[1])):
        if index.size and not (index.dtype.kind in "iu" and 0 <= index.min() <= index.max() < size):
            raise InputError(f"{label}: a cell index is not an integer inside the "
                             f"{shape[0]}x{shape[1]} matrix")
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)
    if values.size and values.dtype.kind not in "iuf":
        raise InputError(f"{label}: a cell value is not a number")
    seen = np.zeros(shape, dtype=bool)
    seen[rows, cols] = True
    if np.count_nonzero(seen) != len(rows):
        raise InputError(f"{label}: a cell is given more than once")
    matrix = np.zeros(shape)
    matrix[rows, cols] = values
    return matrix


def _first_cell(mask: np.ndarray) -> tuple[int, int] | None:
    """Row and column of the first set cell of ``mask``, row-major, or None."""
    hits = np.flatnonzero(mask)
    return np.unravel_index(hits[0], mask.shape) if hits.size else None


def cell_violations(label: str, values: np.ndarray, row_ids: Sequence[str], col_ids: Sequence[str],
                    *, square: bool, symmetric: bool = False, stochastic: bool = False) -> list[str]:
    """Describe the cells that break a labelled matrix's invariants (empty when sound).

    Every cell must be finite and non-negative, and a square matrix (rows and
    columns index one layer) has a zero diagonal. ``symmetric`` also requires
    ``values == values.T``; ``stochastic`` requires cells of at most 1 and rows
    summing to 0 or 1 within ROW_SUM_TOL. Each kind of bad cell is reported at
    its first row-major hit, except diagonal cells and row sums, which are all
    reported.
    """
    noun = "value" if stochastic else "weight"

    def cell(i, j) -> str:
        return f"({row_ids[i]},{col_ids[j]})"

    out = []
    if (hit := _first_cell(~np.isfinite(values))) is not None:
        out.append(f"{label}: non-finite {noun} {values[hit]} at {cell(*hit)}")
    if (hit := _first_cell(values < 0)) is not None:
        out.append(f"{label}: negative {noun} at {cell(*hit)}")
    if square:
        out += [f"{label}: nonzero diagonal at {cell(i, i)}"
                for i in np.flatnonzero(np.diagonal(values))]
    if symmetric and (hit := _first_cell(values != values.T)) is not None:
        i, j = hit
        out.append(f"{label}: asymmetric at {cell(i, j)}={values[i, j]} "
                   f"vs {cell(j, i)}={values[j, i]}")
    if stochastic:
        if (hit := _first_cell(values > 1 + ROW_SUM_TOL)) is not None:
            out.append(f"{label}: {noun} above 1 at {cell(*hit)}")
        out += [f"{label}: row {row_ids[i]} sums to {total}, not 0 or 1"
                for i, total in enumerate(values.sum(axis=1).tolist())
                if total != 0.0 and abs(total - 1.0) > ROW_SUM_TOL]
    return out


@dataclass(frozen=True)
class _LabelledMatrix:
    """A matrix whose rows are one layer's entities and whose columns are another's.

    The labels (``rows``, ``cols``, ``row_ids``, ``col_ids``) and what they
    imply (``is_intra``, ``tag``, ``shape``) live here; each subclass adds its
    matrix field, frozen by :func:`_freeze_matrix` to the ids' shape, and the
    ``violations`` of its cells.
    """

    rows: LayerId
    cols: LayerId
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

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


@dataclass(frozen=True)
class AdjacencyBlock(_LabelledMatrix):
    """A weighted block of the supra-adjacency structure.

    Intra-layer blocks (rows == cols) hold attribute-overlap similarity counts;
    inter-layer blocks hold belongs-to weights. Value-level invariants
    (symmetry, zero diagonal, non-negativity) are reported by ``violations``
    rather than enforced here, so that a block built from bad data can be
    inspected instead of being unrepresentable. Which blocks a network holds,
    and their id order, :class:`MultiLayerNetwork` enforces at construction.
    """

    weights: np.ndarray

    def __post_init__(self):
        _freeze_matrix(self, "weights", f"{self.rows.value}x{self.cols.value} block")

    def violations(self) -> list[str]:
        label = (f"{self.rows.value} intra block" if self.is_intra
                 else f"{self.rows.value}x{self.cols.value} block")
        return cell_violations(label, self.weights, self.row_ids, self.col_ids,
                               square=self.is_intra, symmetric=self.is_intra)


@dataclass(frozen=True)
class TrustMatrix(_LabelledMatrix):
    """Row-stochastic trust derived from an adjacency block.

    Each row is the source entity's trust distribution over targets: rows sum
    to 1 within 1e-9, except rows whose source had no edges, which stay all
    zero. ``violations`` reports breaches instead of the constructor raising,
    for the same inspectability reason as AdjacencyBlock.
    """

    values: np.ndarray

    def __post_init__(self):
        _freeze_matrix(self, "values", f"{self.tag} trust matrix")

    def violations(self) -> list[str]:
        return cell_violations(f"{self.tag} trust", self.values, self.row_ids, self.col_ids,
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
    layers' node ids in that order."""

    graphs: dict[LayerId, tuple[str, ...]]
    intra: dict[LayerId, AdjacencyBlock]
    inter: dict[tuple[LayerId, LayerId], AdjacencyBlock]
    provenance: dict = field(default_factory=dict)

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
