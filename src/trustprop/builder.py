"""Builds adjacency blocks from an entity store.

Intra-layer similarity is attribute overlap: hospitals share departments,
departments share doctors, doctors share hospitals. With ``B`` a layer's 0/1
node x attribute incidence, over every attribute value the layer lists (values
that name no entity still count), the block is ``B Bᵀ`` with the diagonal
zeroed; Jaccard is ``shared / (deg_i + deg_j - shared)``. The belongs-to
blocks come from the same incidences: with ``H`` and ``D`` the doctor x
hospital and doctor x department incidences, the hospital x department block
is the doctor count ``Hᵀ D`` (1 where it is 0) on the cells either record
declares; a department x doctor cell is the declared member's qualification
score. Explicit per-pair weights on the department record override the
computed defaults on declared cells.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .ingest import EntityStore
from .model import (
    INTER_LAYER_PAIRS,
    LAYERS,
    AdjacencyBlock,
    LayerId,
    MultiLayerNetwork,
)


class SimilarityMode(Enum):
    """How two attribute sets score against each other."""

    INTERSECTION_COUNT = "intersection_count"
    JACCARD = "jaccard"


def _incidence(attr_sets: Sequence[Iterable[str]], columns: Sequence[str]) -> np.ndarray:
    """0/1 matrix, [i, j] = 1 where attr_sets[i] holds columns[j]; other values are ignored."""
    index = {c: j for j, c in enumerate(columns)}
    # one assignment for all cells: a numpy call per row dominates the cost at 1 000 rows
    cells = [(i, index[a]) for i, attrs in enumerate(attr_sets) for a in attrs if a in index]
    out = np.zeros((len(attr_sets), len(index)))
    out[tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)] = 1.0
    return out


def layer_attributes(store: EntityStore, layer: LayerId) -> tuple[tuple[str, ...], list[frozenset[str]]]:
    """Node order (lexicographic) and per-node attribute sets for one layer."""
    if layer is LayerId.HOSPITAL:
        ids = tuple(sorted(store.hospitals))
        return ids, [store.hospitals[h].department_ids for h in ids]
    if layer is LayerId.DEPARTMENT:
        ids = tuple(sorted(store.departments))
        return ids, [store.departments[d].doctor_ids for d in ids]
    if layer is LayerId.DOCTOR:
        ids = tuple(sorted(store.doctors))
        return ids, [store.doctors[p].hospital_ids for p in ids]
    raise InputError(f"unknown layer {layer!r}")


def build_intra_layer(store: EntityStore, layer: LayerId,
                      mode: SimilarityMode = SimilarityMode.INTERSECTION_COUNT) -> AdjacencyBlock:
    """Square similarity block for one layer; symmetric with a zero diagonal."""
    if not isinstance(mode, SimilarityMode):
        raise ConfigError(f"unknown similarity mode {mode!r}")
    ids, attrs = layer_attributes(store, layer)
    incidence = _incidence(attrs, sorted(set().union(*attrs)))
    weights = incidence @ incidence.T
    np.fill_diagonal(weights, 0.0)
    if mode is SimilarityMode.JACCARD:
        degree = incidence.sum(axis=1)
        i, j = np.nonzero(weights)
        shared = weights[i, j]
        weights[i, j] = shared / (degree[i] + degree[j] - shared)
    return AdjacencyBlock(rows=layer, cols=layer, row_ids=ids, col_ids=ids, weights=weights)


def build_inter_layer(store: EntityStore, rows: LayerId, cols: LayerId) -> AdjacencyBlock:
    """Belongs-to block for (hospital, department) or (department, doctor).

    A hospital x department cell is nonzero only where membership is declared
    (on either record). Declared cells default to the count of doctors
    affiliated with both sides, or 1 when no such doctor exists, and the
    department's explicit per-hospital weight takes precedence. Department x
    doctor cells, declared by the department's member list, are the member's
    qualification score (0 when it has none), again with the department's
    explicit per-doctor weight winning. Any other layer pair has no belongs-to
    relation.
    """
    if (rows, cols) not in INTER_LAYER_PAIRS:
        raise InputError(
            f"no belongs-to relation for ({rows.value}, {cols.value}); "
            f"supported: hospital x department, department x doctor"
        )

    # both blocks are built department-major, so one loop applies the explicit weights
    d_ids = tuple(sorted(store.departments))
    depts = [store.departments[d] for d in d_ids]
    if rows is LayerId.HOSPITAL:
        other_ids = tuple(sorted(store.hospitals))
        declared = (_incidence([dept.hospital_ids for dept in depts], other_ids)
                    + _incidence([store.hospitals[h].department_ids for h in other_ids],
                                 d_ids).T) > 0
        doctors = store.doctors.values()
        counts = (_incidence([doc.department_ids for doc in doctors], d_ids).T
                  @ _incidence([doc.hospital_ids for doc in doctors], other_ids))
        weights = np.where(declared, np.maximum(counts, 1.0), 0.0)
        explicit = [dept.hospital_weights for dept in depts]
    else:
        other_ids = tuple(sorted(store.doctors))
        declared = _incidence([dept.doctor_ids for dept in depts], other_ids) > 0
        scores = [store.doctors[p].qualification_score for p in other_ids]
        weights = np.where(declared, [0.0 if s is None else s for s in scores], 0.0)
        explicit = [dept.doctor_weights for dept in depts]
    other_index = {o: j for j, o in enumerate(other_ids)}
    for i, dept_weights in enumerate(explicit):
        for o, w in dept_weights.items():
            j = other_index.get(o)
            if j is not None and declared[i, j]:
                weights[i, j] = w
    if rows is LayerId.HOSPITAL:
        return AdjacencyBlock(rows=rows, cols=cols, row_ids=other_ids, col_ids=d_ids,
                              weights=weights.T)
    return AdjacencyBlock(rows=rows, cols=cols, row_ids=d_ids, col_ids=other_ids, weights=weights)


def build_network(store: EntityStore,
                  mode: SimilarityMode = SimilarityMode.INTERSECTION_COUNT) -> MultiLayerNetwork:
    """Assemble the full three-layer network from a (cleaned) store."""
    intra = {layer: build_intra_layer(store, layer, mode) for layer in LAYERS}
    graphs = {layer: block.row_ids for layer, block in intra.items()}
    inter = {pair: build_inter_layer(store, *pair) for pair in INTER_LAYER_PAIRS}
    provenance = {**store.provenance, "similarity_mode": mode.value}
    return MultiLayerNetwork(graphs=graphs, intra=intra, inter=inter, provenance=provenance)
