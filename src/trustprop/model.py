"""Core network types: layers, adjacency blocks, trust matrices, score vectors.

A network always has exactly three layers (hospitals, departments, doctors).
Intra-layer blocks are square and index both of their axes by one layer's node
order; inter-layer blocks exist only where a belongs-to relation exists
(hospital<-department and department<-doctor). Node order within a layer is the
lexicographic order of the entity identifiers and is fixed when the network is
built.

Matrices are dense ``numpy`` arrays, frozen read-only after construction so
instances can be shared across threads. Everything that consumes a block goes
through the ``weights``/``values`` attribute and its ``row_ids``/``col_ids``
labels, which is the seam a sparse backend could slot into later.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, UnknownLayerError

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


def coerce_layer(value: LayerId | str) -> LayerId:
    """Accept a LayerId, its name, or its short tag; raise UnknownLayerError otherwise."""
    if isinstance(value, LayerId):
        return value
    for layer in LayerId:
        if value == layer.value or value == layer.tag:
            return layer
    raise UnknownLayerError(f"unknown layer {value!r}")


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{shape_hint} must be 2-dimensional, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LayerGraph:
    """One layer: ordered node ids plus each node's attribute set.

    The attribute set is what intra-layer similarity is computed from
    (departments for hospitals, doctors for departments, hospitals for
    doctors).
    """

    layer: LayerId
    node_ids: tuple[str, ...]
    attributes: tuple[frozenset[str], ...]

    def __post_init__(self):
        if len(self.node_ids) != len(self.attributes):
            raise DimensionMismatchError(
                f"{self.layer.value} layer: {len(self.node_ids)} node ids but "
                f"{len(self.attributes)} attribute sets"
            )
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError(f"{self.layer.value} layer: duplicate node ids")

    def __len__(self) -> int:
        return len(self.node_ids)

    def index(self, node_id: str) -> int:
        try:
            return self.node_ids.index(node_id)
        except ValueError:
            raise KeyError(node_id) from None


@dataclass(frozen=True)
class AdjacencyBlock:
    """A weighted block of the supra-adjacency structure.

    Intra-layer blocks (rows == cols) hold attribute-overlap similarity counts;
    inter-layer blocks hold belongs-to weights. Value-level invariants
    (symmetry, zero diagonal, non-negativity) are reported by
    :func:`validate_network` rather than enforced here, so that a block built
    from bad data can be inspected instead of being unrepresentable.
    """

    rows: LayerId
    cols: LayerId
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights, f"{self.rows.value}x{self.cols.value} block")
        if arr.shape != (len(self.row_ids), len(self.col_ids)):
            raise DimensionMismatchError(
                f"{self.rows.value}x{self.cols.value} block: weights shape {arr.shape} "
                f"does not match {len(self.row_ids)} row ids x {len(self.col_ids)} col ids"
            )
        object.__setattr__(self, "weights", arr)

    @property
    def is_intra(self) -> bool:
        return self.rows is self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


@dataclass(frozen=True)
class TrustMatrix:
    """Row-stochastic trust derived from an adjacency block.

    Each row is the source entity's trust distribution over targets: rows sum
    to 1 within 1e-9, except rows whose source had no edges, which stay all
    zero. ``violations`` reports breaches instead of the constructor raising,
    for the same inspectability reason as AdjacencyBlock.
    """

    rows: LayerId
    cols: LayerId
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, f"{self.tag} trust matrix")
        if arr.shape != (len(self.row_ids), len(self.col_ids)):
            raise DimensionMismatchError(
                f"{self.tag} trust matrix: values shape {arr.shape} does not match "
                f"{len(self.row_ids)} row ids x {len(self.col_ids)} col ids"
            )
        object.__setattr__(self, "values", arr)

    @property
    def is_intra(self) -> bool:
        return self.rows is self.cols

    @property
    def tag(self) -> str:
        """Edge-table tag: h/d/p for intra, hd/dh/dp/pd for inter."""
        if self.rows is self.cols:
            return self.rows.tag
        return self.rows.tag + self.cols.tag

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def violations(self) -> list[str]:
        out = []
        v = self.values
        finite = np.isfinite(v)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            out.append(f"{self.tag} trust: non-finite value {v[i, j]} at "
                       f"({self.row_ids[i]},{self.col_ids[j]})")
        if v.size and (v < 0).any():
            i, j = np.argwhere(v < 0)[0]
            out.append(f"{self.tag} trust: negative value at ({self.row_ids[i]},{self.col_ids[j]})")
        if v.size and (v > 1 + ROW_SUM_TOL).any():
            i, j = np.argwhere(v > 1 + ROW_SUM_TOL)[0]
            out.append(f"{self.tag} trust: value above 1 at ({self.row_ids[i]},{self.col_ids[j]})")
        sums = v.sum(axis=1) if v.size else np.zeros(len(self.row_ids))
        for i, s in enumerate(sums):
            if s != 0.0 and abs(s - 1.0) > ROW_SUM_TOL:
                out.append(f"{self.tag} trust: row {self.row_ids[i]} sums to {s!r}, not 0 or 1")
        if self.is_intra and v.size:
            diag = np.diagonal(v)
            for i in np.nonzero(diag)[0]:
                out.append(f"{self.tag} trust: nonzero diagonal at ({self.row_ids[i]},{self.row_ids[i]})")
        return out


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
            raise DimensionMismatchError(f"score vector must be 1-dimensional, got shape {arr.shape}")
        if arr.shape[0] != len(self.entity_ids):
            raise DimensionMismatchError(
                f"{self.layer.value} {self.kind.value} scores: {arr.shape[0]} values for "
                f"{len(self.entity_ids)} entity ids"
            )
        if arr.size and (arr < 0).any():
            raise ValueError(f"{self.layer.value} {self.kind.value} scores: negative entry")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.entity_ids)


@dataclass(frozen=True)
class MultiLayerNetwork:
    """The built network: three layer graphs, their intra blocks, and the two
    belongs-to inter blocks."""

    graphs: dict[LayerId, LayerGraph]
    intra: dict[LayerId, AdjacencyBlock]
    inter: dict[tuple[LayerId, LayerId], AdjacencyBlock]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if set(self.graphs) != set(LAYERS):
            raise UnknownLayerError(
                f"network must have exactly the three layers, got {sorted(l.value for l in self.graphs)}"
            )

    def node_ids(self, layer: LayerId) -> tuple[str, ...]:
        return self.graphs[layer].node_ids


def _non_finite(name: str, block: AdjacencyBlock) -> list[str]:
    finite = np.isfinite(block.weights)
    if finite.all():
        return []
    i, j = np.argwhere(~finite)[0]
    return [f"{name} block: non-finite weight {block.weights[i, j]} at "
            f"({block.row_ids[i]},{block.col_ids[j]})"]


def validate_network(network: MultiLayerNetwork) -> list[str]:
    """Check structural invariants; return violation descriptions (empty when sound).

    Violations are data for the caller, not failures: the function never raises
    on bad values and never mutates the network.
    """
    out: list[str] = []
    universes = {
        LayerId.HOSPITAL: set(network.node_ids(LayerId.DEPARTMENT)),
        LayerId.DEPARTMENT: set(network.node_ids(LayerId.DOCTOR)),
        LayerId.DOCTOR: set(network.node_ids(LayerId.HOSPITAL)),
    }
    for layer in LAYERS:
        graph = network.graphs[layer]
        stray = set().union(*graph.attributes) - universes[layer] if graph.attributes else set()
        for attr in sorted(stray):
            out.append(f"{layer.value} layer: attribute {attr!r} does not resolve to an entity")

    for layer in LAYERS:
        block = network.intra.get(layer)
        if block is None:
            out.append(f"{layer.value} layer: intra block missing")
            continue
        ids = network.node_ids(layer)
        if block.row_ids != ids or block.col_ids != ids:
            out.append(f"{layer.value} intra block: ids do not match the layer's node order")
            continue
        out += _non_finite(f"{layer.value} intra", block)
        w = block.weights
        if w.size and (w < 0).any():
            i, j = np.argwhere(w < 0)[0]
            out.append(f"{layer.value} intra block: negative weight at ({ids[i]},{ids[j]})")
        if w.size:
            for i in np.nonzero(np.diagonal(w))[0]:
                out.append(f"{layer.value} intra block: nonzero diagonal at ({ids[i]},{ids[i]})")
            asym = np.argwhere(w != w.T)
            if asym.size:
                i, j = asym[0]
                out.append(
                    f"{layer.value} intra block: asymmetric at ({ids[i]},{ids[j]})="
                    f"{w[i, j]!r} vs ({ids[j]},{ids[i]})={w[j, i]!r}"
                )

    for pair in INTER_LAYER_PAIRS:
        block = network.inter.get(pair)
        name = f"{pair[0].value}x{pair[1].value}"
        if block is None:
            out.append(f"{name} block: missing")
            continue
        if block.row_ids != network.node_ids(pair[0]) or block.col_ids != network.node_ids(pair[1]):
            out.append(f"{name} block: ids do not match the layers' node order")
            continue
        out += _non_finite(name, block)
        if block.weights.size and (block.weights < 0).any():
            i, j = np.argwhere(block.weights < 0)[0]
            out.append(f"{name} block: negative weight at ({block.row_ids[i]},{block.col_ids[j]})")
    for pair in network.inter:
        if pair not in INTER_LAYER_PAIRS:
            out.append(f"{pair[0].value}x{pair[1].value} block: layer pair carries no belongs-to relation")
    return out
