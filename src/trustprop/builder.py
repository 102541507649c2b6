"""Builds adjacency blocks from an entity store.

Intra-layer similarity is attribute overlap: hospitals share departments,
departments share doctors, doctors share hospitals. With ``B`` a layer's 0/1
node x attribute incidence, over every attribute value the layer lists (values
that name no entity still count), the block is ``B Bᵀ`` with the diagonal
zeroed; Jaccard is ``shared / (deg_i + deg_j - shared)``. Inter-layer
belongs-to weights: a department weighs into a hospital by the number of
doctors it has there, and a doctor weighs into a department by qualification
score. Explicit per-pair weights on the department record override the
computed defaults.
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
    out = np.zeros((len(attr_sets), len(index)))
    for i, attrs in enumerate(attr_sets):
        out[i, [index[a] for a in attrs if a in index]] = 1.0
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


def _co_affiliation_counts(store: EntityStore, hospital_ids, department_ids) -> np.ndarray:
    """counts[h, d] = number of doctors affiliated with both h and d."""
    h_index = {h: i for i, h in enumerate(hospital_ids)}
    d_index = {d: j for j, d in enumerate(department_ids)}
    counts = np.zeros((len(hospital_ids), len(department_ids)))
    for doc in store.doctors.values():
        hs = [h_index[h] for h in doc.hospital_ids if h in h_index]
        ds = [d_index[d] for d in doc.department_ids if d in d_index]
        for i in hs:
            for j in ds:
                counts[i, j] += 1
    return counts


def build_inter_layer(store: EntityStore, rows: LayerId, cols: LayerId) -> AdjacencyBlock:
    """Belongs-to block for (hospital, department) or (department, doctor).

    A hospital x department cell is nonzero only where membership is declared
    (on either record). Declared cells default to the count of doctors
    affiliated with both sides, or 1 when no such doctor exists, and the
    department's explicit per-hospital weight takes precedence. Department x
    doctor cells are the member's qualification score, again with the
    department's explicit per-doctor weight winning. Any other layer pair has
    no belongs-to relation.
    """
    if (rows, cols) not in INTER_LAYER_PAIRS:
        raise InputError(
            f"no belongs-to relation for ({rows.value}, {cols.value}); "
            f"supported: hospital x department, department x doctor"
        )

    if (rows, cols) == (LayerId.HOSPITAL, LayerId.DEPARTMENT):
        h_ids = tuple(sorted(store.hospitals))
        d_ids = tuple(sorted(store.departments))
        depts = [store.departments[d] for d in d_ids]
        declared = (_incidence([store.hospitals[h].department_ids for h in h_ids], d_ids)
                    + _incidence([dept.hospital_ids for dept in depts], h_ids).T) > 0
        counts = _co_affiliation_counts(store, h_ids, d_ids)
        weights = np.where(declared, np.maximum(counts, 1.0), 0.0)
        h_index = {h: i for i, h in enumerate(h_ids)}
        for j, dept in enumerate(depts):
            for h, w in dept.hospital_weights.items():
                i = h_index.get(h)
                if i is not None and declared[i, j]:
                    weights[i, j] = w
        return AdjacencyBlock(rows=rows, cols=cols, row_ids=h_ids, col_ids=d_ids, weights=weights)

    d_ids = tuple(sorted(store.departments))
    p_ids = tuple(sorted(store.doctors))
    p_index = {p: j for j, p in enumerate(p_ids)}
    weights = np.zeros((len(d_ids), len(p_ids)))
    for i, d in enumerate(d_ids):
        dept = store.departments[d]
        for p in dept.doctor_ids:
            j = p_index.get(p)
            if j is None:
                continue
            if p in dept.doctor_weights:
                weights[i, j] = dept.doctor_weights[p]
            else:
                score = store.doctors[p].qualification_score
                weights[i, j] = score if score is not None else 0.0
    return AdjacencyBlock(rows=rows, cols=cols, row_ids=d_ids, col_ids=p_ids, weights=weights)


def build_network(store: EntityStore,
                  mode: SimilarityMode = SimilarityMode.INTERSECTION_COUNT) -> MultiLayerNetwork:
    """Assemble the full three-layer network from a (cleaned) store."""
    intra = {layer: build_intra_layer(store, layer, mode) for layer in LAYERS}
    graphs = {layer: block.row_ids for layer, block in intra.items()}
    inter = {pair: build_inter_layer(store, *pair) for pair in INTER_LAYER_PAIRS}
    provenance = {**store.provenance, "similarity_mode": mode.value}
    return MultiLayerNetwork(graphs=graphs, intra=intra, inter=inter, provenance=provenance)
