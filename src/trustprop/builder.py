"""Builds adjacency blocks from an entity store.

Intra-layer similarity is attribute overlap: hospitals share departments,
departments share doctors, doctors share hospitals. With ``B`` a layer's 0/1
node x attribute incidence, over every attribute value the layer lists (values
that name no entity still count), the block is ``B Bᵀ`` with the diagonal
zeroed; Jaccard is ``shared / (deg_i + deg_j - shared)``. The block is counted
from shared memberships, one pair per attribute two nodes hold, and kept as its
cells, so its cost grows with those pairs, not with ``n²``. A belongs-to block
holds one cell per declared membership, built from those cells alone. A
hospital x department cell is declared by either record; its weight is the
number of doctors who list both, or 1 when there is none. A department x
doctor cell is declared by the department's member list; its weight is the
member's qualification score, or 0 when it has none. Explicit per-pair weights
on the department record override both defaults, and ids that name no entity
are dropped.
"""
from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain

import numpy as np

from .errors import ConfigError, InputError
from .ingest import EntityStore
from .model import (
    INTER_LAYER_PAIRS,
    LAYERS,
    AdjacencyBlock,
    LayerId,
    MultiLayerNetwork,
    from_cells,
)


class SimilarityMode(Enum):
    """How two attribute sets score against each other."""

    INTERSECTION_COUNT = "intersection_count"
    JACCARD = "jaccard"


def _shared_pairs(attr_sets: list[frozenset[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs ``(i, j)`` with ``i < j``, one for each attribute both nodes hold."""
    groups: dict[str, list[int]] = {}
    for i, attrs in enumerate(attr_sets):
        for a in attrs:
            groups.setdefault(a, []).append(i)
    # members of each attribute, nodes ascending, one group after another
    node = np.fromiter(chain.from_iterable(groups.values()), dtype=np.intp)
    size = np.fromiter(map(len, groups.values()), dtype=np.intp, count=len(groups))
    position = np.arange(len(node))
    later = np.repeat(np.cumsum(size), size) - position - 1  # later members of the group
    first = np.repeat(node, later)
    # member k pairs with positions k+1 .. k+later[k], at pair offsets cumsum(later) - later
    shift = np.repeat(np.cumsum(later) - later - position - 1, later)
    return first, node[np.arange(len(first)) - shift]


#: per layer, the store's table of records and the membership its intra block compares
_TABLES = {LayerId.HOSPITAL: ("hospitals", "department_ids"),
           LayerId.DEPARTMENT: ("departments", "doctor_ids"),
           LayerId.DOCTOR: ("doctors", "hospital_ids")}


def layer_ids(store: EntityStore, layer: LayerId) -> tuple[str, ...]:
    """A layer's node order: its entity ids, sorted lexicographically."""
    if layer not in _TABLES:
        raise InputError(f"unknown layer {layer!r}")
    return tuple(sorted(getattr(store, _TABLES[layer][0])))


def layer_attributes(store: EntityStore, layer: LayerId) -> tuple[tuple[str, ...], list[frozenset[str]]]:
    """Node order (lexicographic) and per-node attribute sets for one layer."""
    ids = layer_ids(store, layer)
    table, attribute = _TABLES[layer]
    records = getattr(store, table)
    return ids, [getattr(records[i], attribute) for i in ids]


def build_intra_layer(store: EntityStore, layer: LayerId,
                      mode: SimilarityMode = SimilarityMode.INTERSECTION_COUNT) -> AdjacencyBlock:
    """Square similarity block for one layer; symmetric with a zero diagonal."""
    if not isinstance(mode, SimilarityMode):
        raise ConfigError(f"unknown similarity mode {mode!r}")
    ids, attrs = layer_attributes(store, layer)
    n = len(ids)
    i, j = _shared_pairs(attrs)
    # each pair's two cells, row-major; a cell repeats once per attribute the pair shares
    keys = np.sort(np.concatenate([i * n + j, j * n + i]))
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    rows, cols = np.divmod(keys[starts], n)
    # float counts of small integers are exact, so the block equals B Bᵀ bit for bit
    weights = np.diff(starts, append=len(keys)).astype(float)
    if mode is SimilarityMode.JACCARD:
        degree = np.fromiter(map(len, attrs), dtype=float, count=n)
        weights /= degree[rows] + degree[cols] - weights
    return AdjacencyBlock(rows=layer, cols=layer, row_ids=ids, col_ids=ids,
                          cells=(rows, cols, weights))


def build_inter_layer(store: EntityStore, rows: LayerId, cols: LayerId) -> AdjacencyBlock:
    """Belongs-to block for (hospital, department) or (department, doctor): one
    cell per declared membership, weighted by the rules of the module docstring.
    Any other layer pair has no belongs-to relation."""
    if (rows, cols) not in INTER_LAYER_PAIRS:
        raise InputError(
            f"no belongs-to relation for ({rows.value}, {cols.value}); "
            f"supported: hospital x department, department x doctor"
        )
    row_ids, col_ids = layer_ids(store, rows), layer_ids(store, cols)
    row_at = {r: i for i, r in enumerate(row_ids)}
    col_at = {c: j for j, c in enumerate(col_ids)}
    cells: dict[tuple[int, int], float] = {}
    if rows is LayerId.HOSPITAL:
        shared = Counter((h, d) for doc in store.doctors.values()
                         for h in doc.hospital_ids for d in doc.department_ids)
        declared = ({(h, d) for d, dept in store.departments.items() for h in dept.hospital_ids}
                    | {(h, d) for h, hosp in store.hospitals.items() for d in hosp.department_ids})
        for h, d in declared:
            if h in row_at and d in col_at:
                cells[row_at[h], col_at[d]] = store.departments[d].hospital_weights.get(
                    h, float(max(shared[h, d], 1)))
    else:
        for d, dept in store.departments.items():
            for p in dept.doctor_ids:
                if p in col_at:
                    score = store.doctors[p].qualification_score
                    cells[row_at[d], col_at[p]] = dept.doctor_weights.get(
                        p, 0.0 if score is None else score)
    index = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    checked = from_cells((len(row_ids), len(col_ids)), *index, list(cells.values()),
                         f"{rows.value}x{cols.value} block")
    return AdjacencyBlock(rows=rows, cols=cols, row_ids=row_ids, col_ids=col_ids, cells=checked)


def build_network(store: EntityStore,
                  mode: SimilarityMode = SimilarityMode.INTERSECTION_COUNT) -> MultiLayerNetwork:
    """Assemble the full three-layer network from a (cleaned) store."""
    intra = {layer: build_intra_layer(store, layer, mode) for layer in LAYERS}
    graphs = {layer: block.row_ids for layer, block in intra.items()}
    inter = {pair: build_inter_layer(store, *pair) for pair in INTER_LAYER_PAIRS}
    provenance = {**store.provenance, "similarity_mode": mode.value}
    return MultiLayerNetwork(graphs=graphs, intra=intra, inter=inter, provenance=provenance)
