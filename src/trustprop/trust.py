"""Derives row-stochastic trust matrices from adjacency blocks.

Each row of a trust matrix is the source entity's outgoing weights divided by
their sum; sources with no edges keep an all-zero row rather than being
smoothed. Reverse trust for a belongs-to block is the same normalization
applied to the transpose, giving the child-to-parent direction. Blocks and
trust are both stored as their cells: only the block's cells are divided, and
the trust matrix keeps the quotients as its cells. A forward row sum adds the
row's cells in column order (:func:`model.row_sums`), and a reverse row sum
adds a column's cells in row order (:func:`model.column_sums`): the sums that
validation checks for overflow.
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
    column_sums,
    row_sums,
)


def _checked_sums(sums: np.ndarray, tag: str, row_ids: tuple[str, ...]) -> np.ndarray:
    """``sums`` itself. Raises InputError on a row whose sum overflowed, which would
    otherwise divide to a row of zeros."""
    overflowed = np.flatnonzero(~np.isfinite(sums))
    if overflowed.size:
        raise InputError(f"{tag} trust: the weights of {row_ids[overflowed[0]]} sum past "
                         "the float range")
    return sums


def _divide_cells(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                  sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's weight divided by its row's sum. A cell is dropped where that sum is not
    positive or the quotient is 0, which is where a zero-filled dense divide leaves a 0."""
    row_sums = sums[rows]
    quotients = np.divide(weights, row_sums, out=np.zeros(len(weights)), where=row_sums > 0)
    kept = quotients != 0
    if kept.all():
        # the block's own index arrays, shared rather than copied: a network holds both
        return rows, cols, quotients
    return rows[kept], cols[kept], quotients[kept]


def derive_trust(block: AdjacencyBlock) -> TrustMatrix:
    """Row-normalize an adjacency block into a trust matrix, kept as its nonzero cells.

    All-zero rows stay all-zero; every other row sums to 1 within 1e-9.
    """
    sums = _checked_sums(row_sums(block.cells, block.shape), block.tag, block.row_ids)
    return TrustMatrix(rows=block.rows, cols=block.cols, row_ids=block.row_ids,
                       col_ids=block.col_ids, cells=_divide_cells(*block.cells, sums))


def derive_reverse_trust(block: AdjacencyBlock) -> TrustMatrix:
    """Trust in the child-to-parent direction of a belongs-to block.

    Transposes the block and then row-normalizes, so each child distributes
    trust over the parents it belongs to in proportion to its weights there.
    The block's cells, stably sorted by column, are the transpose's row-major cells.
    """
    if block.is_intra:
        raise InputError(
            f"reverse trust needs an inter-layer block, got intra-layer {block.rows.value}"
        )
    sums = _checked_sums(column_sums(block.cells, block.shape), block.cols.tag + block.rows.tag,
                         block.col_ids)
    rows, cols, weights = block.cells
    order = np.argsort(cols, kind="stable")
    return TrustMatrix(rows=block.cols, cols=block.rows, row_ids=block.col_ids,
                       col_ids=block.row_ids,
                       cells=_divide_cells(cols[order], rows[order], weights[order], sums))


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
