"""Trust propagation over a three-layer healthcare entity network.

The package ingests flat CSV tables of hospitals, departments, and doctors,
builds intra-layer and inter-layer adjacency from shared attributes and
membership, row-normalizes those blocks into trust matrices, propagates
residual scores through the trust structure until convergence, and evaluates
the resulting rankings against ground-truth ratings, including stress tests
on synthetically regenerated trust values.
"""
from __future__ import annotations

from .builder import SimilarityMode, build_inter_layer, build_intra_layer, build_network
from .errors import ConfigError, InputError, InvalidConfigError, TrustPropError
from .ingest import (
    EntityStore,
    baseline_columns,
    clean,
    derive_department_rating,
    ground_truth_ratings,
    like_pct_to_rating,
    parse_store,
)
from .metrics import (
    MetricsReport,
    build_report,
    kendall,
    precision_at_k,
    rmse_mae,
    spearman,
    top_k_ids,
)
from .model import (
    AdjacencyBlock,
    LayerGraph,
    LayerId,
    MultiLayerNetwork,
    ScoreVector,
    TrustMatrix,
    validate_network,
)
from .scoring import (
    ConvergenceConfig,
    DeltaNorm,
    PropagationResult,
    ResidualConfig,
    ResidualKind,
    closed_form_score,
    generate_residual,
    initial_score,
    propagate,
    score_network,
)
from .stress import (
    EdgeTable,
    GeneratorConfig,
    GeneratorMethod,
    export_edge_table,
    generate_synthetic,
    read_edge_table,
    rebuild_trust,
    run_stress,
    stress_compare,
    write_edge_table,
)
from .trust import TrustNetwork, derive_network_trust, derive_reverse_trust, derive_trust

__version__ = "0.1.0"

__all__ = [
    "AdjacencyBlock",
    "ConfigError",
    "ConvergenceConfig",
    "DeltaNorm",
    "EdgeTable",
    "EntityStore",
    "GeneratorConfig",
    "GeneratorMethod",
    "InputError",
    "InvalidConfigError",
    "LayerGraph",
    "LayerId",
    "MetricsReport",
    "MultiLayerNetwork",
    "PropagationResult",
    "ResidualConfig",
    "ResidualKind",
    "ScoreVector",
    "SimilarityMode",
    "TrustMatrix",
    "TrustNetwork",
    "TrustPropError",
    "baseline_columns",
    "build_inter_layer",
    "build_intra_layer",
    "build_network",
    "build_report",
    "clean",
    "closed_form_score",
    "derive_department_rating",
    "derive_network_trust",
    "derive_reverse_trust",
    "derive_trust",
    "export_edge_table",
    "generate_residual",
    "generate_synthetic",
    "ground_truth_ratings",
    "initial_score",
    "kendall",
    "like_pct_to_rating",
    "parse_store",
    "precision_at_k",
    "propagate",
    "read_edge_table",
    "rebuild_trust",
    "rmse_mae",
    "run_stress",
    "score_network",
    "spearman",
    "stress_compare",
    "top_k_ids",
    "validate_network",
    "write_edge_table",
]
