"""Derives row-stochastic trust matrices from adjacency blocks.

Each row of a trust matrix is the source entity's outgoing weights divided by
their sum; sources with no edges keep an all-zero row rather than being
smoothed. Reverse trust for a belongs-to block is the same normalization
applied to the transpose, giving the child-to-parent direction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import (
    INTER_LAYER_PAIRS,
    LAYERS,
    AdjacencyBlock,
    LayerId,
    MultiLayerNetwork,
    TrustMatrix,
)


def _normalize_rows(weights: np.ndarray) -> np.ndarray:
    sums = weights.sum(axis=1, keepdims=True)
    out = np.zeros_like(weights, dtype=float)
    np.divide(weights, sums, out=out, where=sums > 0)
    return out


def derive_trust(block: AdjacencyBlock) -> TrustMatrix:
    """Row-normalize an adjacency block into a trust matrix.

    All-zero rows stay all-zero; every other row sums to 1 within 1e-9.
    """
    return TrustMatrix(
        rows=block.rows,
        cols=block.cols,
        row_ids=block.row_ids,
        col_ids=block.col_ids,
        values=_normalize_rows(block.weights),
    )


def derive_reverse_trust(block: AdjacencyBlock) -> TrustMatrix:
    """Trust in the child-to-parent direction of a belongs-to block.

    Transposes the block and then row-normalizes, so each child distributes
    trust over the parents it belongs to in proportion to its weights there.
    """
    if block.is_intra:
        raise InputError(
            f"reverse trust needs an inter-layer block, got intra-layer {block.rows.value}"
        )
    return TrustMatrix(
        rows=block.cols,
        cols=block.rows,
        row_ids=block.col_ids,
        col_ids=block.row_ids,
        values=_normalize_rows(block.weights.T),
    )


@dataclass(frozen=True)
class TrustNetwork:
    """All seven trust matrices of a built network.

    Three intra-layer matrices plus both directions of each belongs-to block:
    hospital->department, department->hospital, department->doctor, and
    doctor->department.
    """

    intra: dict[LayerId, TrustMatrix]
    inter: dict[tuple[LayerId, LayerId], TrustMatrix]

    def by_tag(self) -> dict[str, TrustMatrix]:
        return {m.tag: m for m in self.all_matrices()}

    def all_matrices(self) -> list[TrustMatrix]:
        return [self.intra[layer] for layer in LAYERS] + [
            self.inter[key] for key in sorted(self.inter, key=lambda k: (k[0].value, k[1].value))
        ]


def derive_network_trust(network: MultiLayerNetwork) -> TrustNetwork:
    """Derive the full set of trust matrices from a network's blocks."""
    intra = {layer: derive_trust(network.intra[layer]) for layer in LAYERS}
    inter = {}
    for pair in INTER_LAYER_PAIRS:
        block = network.inter[pair]
        inter[pair] = derive_trust(block)
        inter[(pair[1], pair[0])] = derive_reverse_trust(block)
    return TrustNetwork(intra=intra, inter=inter)
