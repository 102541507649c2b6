"""Acceptance gate: one test per shipped guarantee, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every criterion states its tolerance inline.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trustprop import (
    ConvergenceConfig,
    GeneratorConfig,
    GeneratorMethod,
    LayerId,
    ResidualConfig,
    ScoreVector,
    TrustMatrix,
    build_network,
    clean,
    closed_form_score,
    derive_network_trust,
    derive_trust,
    generate_residual,
    generate_synthetic,
    kendall,
    parse_store,
    precision_at_k,
    propagate,
    read_edge_table,
    rebuild_trust,
    rmse_mae,
    score_network,
    spearman,
    write_edge_table,
)
from trustprop.builder import build_intra_layer, build_inter_layer
from trustprop.model import AdjacencyBlock, ScoreKind
from trustprop.stress import export_edge_table, trust_network_from_tags

DEMO = Path(__file__).parent / "fixtures" / "demo"
README = Path(__file__).parent.parent / "README.md"


@contextlib.contextmanager
def gate(name: str):
    try:
        yield
    except BaseException as exc:
        print(f"[acceptance] {name}: FAIL ({type(exc).__name__})")
        raise
    print(f"[acceptance] {name}: PASS")


# --- hand-checked reference matrices for the demo fixture -------------------
# Adjacency counts are exact integers. The two-decimal trust references mix
# rounding and truncation conventions (1/6 appears as both 0.17 and 0.16), so
# a trust cell passes by either: |computed - reference| <= 0.005, or the
# reference equals the computed value truncated to two decimals.

ADJACENCY_REFERENCE = {
    "h": [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
    "d": [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]],
    "p": [[0, 1, 2, 2, 1], [1, 0, 1, 1, 0], [2, 1, 0, 2, 1],
          [2, 1, 2, 0, 1], [1, 0, 1, 1, 0]],
    "hd": [[2, 1, 1, 0], [1, 2, 0, 0], [2, 0, 0, 1], [1, 0, 0, 0]],
    "dp": [[10, 6, 8, 0, 0], [0, 0, 4, 6, 0], [0, 8, 0, 0, 4], [0, 0, 0, 0, 6]],
}

TRUST_REFERENCE = {
    "h": [[0, .5, .25, .25], [.5, 0, .25, .25], [.33, .33, 0, .33], [.33, .33, .33, 0]],
    "d": [[0, .5, .5, 0], [1, 0, 0, 0], [.5, 0, 0, .5], [0, 0, 1, 0]],
    "p": [[0, .17, .33, .33, .16], [.33, 0, .33, .33, 0], [.33, .17, 0, .33, .16],
          [.33, .17, .33, 0, .16], [.33, 0, .33, .33, 0]],
    "hd": [[.5, .25, .25, 0], [.33, .67, 0, 0], [.67, 0, 0, .33], [1, 0, 0, 0]],
    "dh": [[.33, .17, .33, .17], [.33, .67, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]],
    "dp": [[.42, .25, .33, 0, 0], [0, 0, .4, .6, 0], [0, .67, 0, 0, .33], [0, 0, 0, 0, 1]],
    "pd": [[1, 0, 0, 0], [.43, 0, .57, 0], [.67, .33, 0, 0], [0, 1, 0, 0], [0, 0, .40, .60]],
}

# --- reference points from a full-scale private dataset ---------------------
# Orders of magnitude observed when the pipeline ran over a large scraped
# healthcare corpus that is not distributable with this repository. They are
# documented in the README for orientation and are deliberately asserted
# nowhere: the bundled demo fixture cannot and should not reproduce them.

DATASET_REFERENCE_VALUES = {
    "rank_correlation_hospital": -0.0015,
    "rank_correlation_department": 0.9088,
    "rank_correlation_doctor_by_scenario": (0.4362, 0.4667, 0.4627),
    "doctors_raw_to_cleaned": (160, 77),
    "hospitals_raw_to_cleaned": (15, 10),
    "departments_raw_to_cleaned": (53, 32),
    "nonzero_trust_values_department": 20,
    "nonzero_trust_values_hospital": 64,
    "nonzero_trust_values_doctor": 1172,
}


def trust_cell_matches(computed: float, reference: float) -> bool:
    if abs(computed - reference) <= 0.005 + 1e-9:
        return True
    return math.floor(computed * 100) / 100 == reference


def load_demo():
    return clean(parse_store(DEMO / "doctors.csv", DEMO / "hospitals.csv",
                             DEMO / "departments.csv"))


def constant_residuals(trusts, value=0.2):
    by_tag = trusts.by_tag()
    return {
        layer: generate_residual(ResidualConfig.constant(value),
                                 len(by_tag[layer.tag].row_ids), layer,
                                 by_tag[layer.tag].row_ids)
        for layer in LayerId
    }


def random_block(rng, n, zero_row_chance=0.2, layer=LayerId.HOSPITAL) -> AdjacencyBlock:
    weights = rng.random((n, n))
    weights[rng.random((n, n)) < 0.4] = 0.0
    np.fill_diagonal(weights, 0.0)  # intra blocks never carry self-edges
    for i in range(n):
        if rng.random() < zero_row_chance:
            weights[i] = 0.0
    ids = tuple(f"{layer.tag}{i}" for i in range(n))
    return AdjacencyBlock(rows=layer, cols=layer, row_ids=ids, col_ids=ids, weights=weights)


def random_trust(rng, n, zero_row_chance=0.2, layer=LayerId.HOSPITAL) -> TrustMatrix:
    return derive_trust(random_block(rng, n, zero_row_chance, layer))


def test_demo_network_golden_matrices():
    """Demo fixture: adjacency exact, trust within the two-decimal rule, < 1 s."""
    with gate("demo-network-golden-matrices"):
        started = time.perf_counter()
        store = load_demo()
        network = build_network(store)
        trusts = derive_network_trust(network)

        blocks = {
            "h": build_intra_layer(store, LayerId.HOSPITAL),
            "d": build_intra_layer(store, LayerId.DEPARTMENT),
            "p": build_intra_layer(store, LayerId.DOCTOR),
            "hd": build_inter_layer(store, LayerId.HOSPITAL, LayerId.DEPARTMENT),
            "dp": build_inter_layer(store, LayerId.DEPARTMENT, LayerId.DOCTOR),
        }
        for tag, reference in ADJACENCY_REFERENCE.items():
            got = blocks[tag].weights
            want = np.array(reference, dtype=float)
            assert np.array_equal(got, want), f"adjacency {tag}:\n{got}\nvs\n{want}"

        by_tag = trusts.by_tag()
        for tag, reference in TRUST_REFERENCE.items():
            got = by_tag[tag].values
            want = np.array(reference, dtype=float)
            assert got.shape == want.shape, tag
            for i in range(got.shape[0]):
                for j in range(got.shape[1]):
                    assert trust_cell_matches(got[i, j], want[i, j]), (
                        f"trust {tag}[{i},{j}] = {got[i, j]:.6f} vs reference {want[i, j]}")

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"golden suite took {elapsed:.3f} s"


def test_trust_row_normalization_invariant():
    """1000 random blocks (sizes 1..50): rows sum to 1 +- 1e-9 or stay all zero,
    and the zero/nonzero support is preserved cell for cell."""
    with gate("trust-row-normalization-invariant"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            block = random_block(rng, n)
            trust = derive_trust(block)
            sums = trust.values.sum(axis=1)
            for i in range(n):
                assert sums[i] == pytest.approx(1.0, abs=1e-9) or sums[i] == 0.0
            assert ((trust.values > 0) == (block.weights > 0)).all()
            assert trust.violations() == []


def test_propagation_matches_closed_form():
    """200 random systems (sizes 2..8): the iterative scores equal s0 times the
    r-th matrix power within 1e-9, and fully stochastic rows conserve total
    score mass within 1e-9 at every iteration."""
    with gate("propagation-closed-form-equivalence"):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            zero_rows = 0.3 if trial % 2 else 0.0
            trust = random_trust(rng, n, zero_row_chance=zero_rows)
            ids = trust.row_ids
            s0 = ScoreVector(layer=trust.rows, kind=ScoreKind.INITIAL,
                             entity_ids=ids, values=rng.random(n))
            damping = 1.0 if trial % 3 else float(rng.uniform(0.5, 1.0))
            budget = int(rng.integers(1, 15))
            config = ConvergenceConfig(epsilon=1e-15, max_iterations=budget)
            result = propagate(s0, trust, config, damping=damping)
            direct = closed_form_score(s0, trust, result.iterations, damping=damping)
            assert np.abs(result.scores.values - direct.values).max() <= 1e-9

            fully_stochastic = (trust.values.sum(axis=1) > 0.5).all()
            if fully_stochastic and damping == 1.0:
                current = s0.values.copy()
                for _ in range(budget):
                    current = current @ trust.values
                    assert abs(current.sum() - s0.values.sum()) <= 1e-9


def test_initial_score_oracle():
    """Constant 0.2 residuals on the demo fixture: hospital initial scores equal
    [0.532, 0.368, 0.466, 0.234] when fed through the two-decimal reference
    matrix (within 1e-9), and the exact-fixture route lands within 0.005."""
    with gate("initial-score-oracle"):
        reference_dh = np.array(TRUST_REFERENCE["dh"], dtype=float)
        from_reference = 0.2 + 0.2 * reference_dh.sum(axis=0)
        want = np.array([0.532, 0.368, 0.466, 0.234])
        assert np.abs(from_reference - want).max() <= 1e-9

        store = load_demo()
        trusts = derive_network_trust(build_network(store))
        scored = score_network(trusts, constant_residuals(trusts))
        exact = scored[LayerId.HOSPITAL].initial.values
        assert exact == pytest.approx([8 / 15, 11 / 30, 7 / 15, 7 / 30], abs=1e-12)
        assert np.abs(exact - want).max() <= 0.005


def test_metric_oracles():
    """Correlations equal an exact-fraction brute force on every permutation of
    four distinct values (bit-for-bit); top-k of a list against itself scores
    1.000; identical vectors have zero RMSE and MAE."""
    with gate("metric-oracles"):
        base = [1.0, 2.0, 3.0, 4.0]
        n = 4
        pair_count = n * (n - 1) // 2
        for perm in itertools.permutations(base):
            ranks_a = base  # distinct values rank as themselves
            d_sq = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(ranks_a, perm))
            rho_exact = 1 - Fraction(6) * d_sq / (n * (n * n - 1))
            assert spearman(base, perm) == float(rho_exact), perm

            concordant = sum(
                1 for i, j in itertools.combinations(range(n), 2)
                if (base[i] - base[j]) * (perm[i] - perm[j]) > 0)
            tau_exact = Fraction(2 * concordant - pair_count, pair_count)
            assert kendall(base, perm) == float(tau_exact), perm

        scored = {f"e{i}": float(i) for i in range(10)}
        for k in (1, 3, 10):
            assert precision_at_k(scored, scored, k) == (1.0, 1.0, 1.0)

        values = [0.1, 0.4, 0.9, 0.3]
        assert rmse_mae(values, values) == (0.0, 0.0)


def test_synthetic_stress_round_trip(tmp_path):
    """Identity regeneration through the CSV edge table reproduces every score
    within 1e-9 with perfect rank agreement; high-concentration regeneration
    (1e12, 10 seeds) keeps hospital rank correlation at 0.99 or above."""
    with gate("synthetic-stress-round-trip"):
        store = load_demo()
        trusts = derive_network_trust(build_network(store))
        residuals = constant_residuals(trusts)
        config = ConvergenceConfig()
        true_scores = score_network(trusts, residuals, config)

        table = export_edge_table(trusts.all_matrices())
        path = tmp_path / "edges.csv"
        write_edge_table(table, path)
        rebuilt, report = rebuild_trust(read_edge_table(path), trusts.by_tag())
        assert report.dropped_diagonal == 0
        synth_scores = score_network(trust_network_from_tags(rebuilt), residuals, config)
        for layer in LayerId:
            a = true_scores[layer].result.scores.values
            b = synth_scores[layer].result.scores.values
            assert np.abs(a - b).max() <= 1e-9, layer
            assert spearman(a, b) == 1.0 and kendall(a, b) == 1.0

        for seed in range(10):
            generator = GeneratorConfig(method=GeneratorMethod.DIRICHLET,
                                        concentration=1e12, seed=seed)
            synth = generate_synthetic(table, generator)
            regenerated, _ = rebuild_trust(synth, trusts.by_tag())
            scores = score_network(trust_network_from_tags(regenerated), residuals, config)
            a = true_scores[LayerId.HOSPITAL].result.scores.values
            b = scores[LayerId.HOSPITAL].result.scores.values
            assert spearman(a, b) >= 0.99, seed


def test_dataset_reference_points_documented():
    """The README documents full-dataset reference points; the values live in
    one dictionary here and are asserted by no test."""
    with gate("dataset-reference-points-documented"):
        assert DATASET_REFERENCE_VALUES, "reference dictionary must not be empty"
        text = README.read_text(encoding="utf-8")
        assert "Dataset-dependent reference points" in text
        for key in ("0.9088", "-0.0015", "1172"):
            assert key in text, f"README must list the reference value {key}"
        # the demo fixture must never be tuned toward those numbers
        demo_store = load_demo()
        assert demo_store.counts() == {"doctors": 5, "hospitals": 4, "departments": 4}


def test_propagation_scaling():
    """Per-iteration cost grows at most quadratically: the log-log slope across
    n in {50, 100, 200, 400} stays at or below 2.3, measured in under 60 s."""
    with gate("propagation-scaling"):
        started = time.perf_counter()
        rng = np.random.default_rng(5150)
        sizes = [50, 100, 200, 400]
        iterations = 50
        per_iteration = []
        for n in sizes:
            trust = random_trust(rng, n, zero_row_chance=0.0)
            s0 = ScoreVector(layer=trust.rows, kind=ScoreKind.INITIAL,
                             entity_ids=trust.row_ids, values=rng.random(n))
            config = ConvergenceConfig(epsilon=1e-300, max_iterations=iterations)
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                result = propagate(s0, trust, config)
                best = min(best, time.perf_counter() - t0)
            per_iteration.append(best / max(result.iterations, 1))
        slope = np.polyfit(np.log(sizes), np.log(per_iteration), 1)[0]
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"scaling measurement took {elapsed:.1f} s"
        assert slope <= 2.3, f"log-log slope {slope:.2f} (times: {per_iteration})"
