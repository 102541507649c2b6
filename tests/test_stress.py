from __future__ import annotations

import numpy as np
import pytest

from trustprop import (
    ConvergenceConfig,
    EdgeRecord,
    GeneratorConfig,
    GeneratorMethod,
    LayerId,
    ResidualConfig,
    export_edge_table,
    generate_residual,
    generate_synthetic,
    read_edge_table,
    rebuild_trust,
    run_stress,
    score_network,
    stress_compare,
    write_edge_table,
)
from trustprop.errors import (
    EmptyTableError,
    InputError,
    MalformedRowError,
    OutOfShapeError,
    SchemaVersionError,
)
from trustprop.stress import trust_network_from_tags


def demo_scores(demo_network, demo_trust, **kwargs):
    residuals = {
        layer: generate_residual(ResidualConfig.constant(0.2), len(demo_network.node_ids(layer)),
                                 layer, demo_network.node_ids(layer))
        for layer in LayerId
    }
    return score_network(demo_trust, residuals, **kwargs)


def test_edge_record_validation():
    EdgeRecord(layer_tag="hd", src="H1", dst="D1", trust=0.5)
    with pytest.raises(InputError):
        EdgeRecord(layer_tag="hp", src="H1", dst="P1", trust=0.5)
    with pytest.raises(InputError):
        EdgeRecord(layer_tag="h", src="H1", dst="H2", trust=0.0)
    with pytest.raises(InputError):
        EdgeRecord(layer_tag="h", src="H1", dst="H2", trust=-0.1)


def test_export_covers_all_nonzero_cells(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    assert len(table) == 68
    by_tag = {}
    for rec in table:
        by_tag[rec.layer_tag] = by_tag.get(rec.layer_tag, 0) + 1
    assert by_tag == {"h": 12, "d": 6, "p": 18, "hd": 8, "dh": 8, "dp": 8, "pd": 8}
    assert all(rec.trust > 0 for rec in table)


def test_edge_table_csv_round_trip(tmp_path, demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    path = tmp_path / "edges.csv"
    write_edge_table(table, path)
    assert path.read_text(encoding="utf-8").startswith("# schema: trust-edges/1\n")
    again = read_edge_table(path)
    assert len(again) == len(table)
    for a, b in zip(table, again):
        assert (a.layer_tag, a.src, a.dst) == (b.layer_tag, b.src, b.dst)
        assert b.trust == pytest.approx(a.trust, abs=1e-12)


def test_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("# schema: trust-edges/2\nlayer,src,dst,trust\n", encoding="utf-8")
    with pytest.raises(SchemaVersionError):
        read_edge_table(path)


def test_read_rejects_malformed_row(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("# schema: trust-edges/1\nlayer,src,dst,trust\nh,H1,H2,not-a-number\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRowError):
        read_edge_table(path)


def test_identity_generator_copies(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    synth = generate_synthetic(table, GeneratorConfig(method=GeneratorMethod.IDENTITY))
    assert [rec.trust for rec in synth] == [rec.trust for rec in table]


def test_generate_from_empty_table_rejected():
    with pytest.raises(EmptyTableError):
        generate_synthetic([], GeneratorConfig())


def test_dirichlet_rows_remain_distributions(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=50.0, seed=9)
    synth = generate_synthetic(table, config)
    rows: dict[tuple[str, str], float] = {}
    for rec in synth:
        rows[(rec.layer_tag, rec.src)] = rows.get((rec.layer_tag, rec.src), 0.0) + rec.trust
    for key, total in rows.items():
        assert total == pytest.approx(1.0, abs=1e-9), key
    # same seed, same draw; different seed, different draw
    again = generate_synthetic(table, config)
    assert [r.trust for r in again] == [r.trust for r in synth]
    other = generate_synthetic(table, GeneratorConfig(method=GeneratorMethod.DIRICHLET,
                                                      concentration=50.0, seed=10))
    assert any(a.trust != b.trust for a, b in zip(synth, other))


def test_high_concentration_hugs_original(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=1e8, seed=1)
    synth = generate_synthetic(table, config)
    for a, b in zip(table, synth):
        assert b.trust == pytest.approx(a.trust, abs=1e-2)


def test_bootstrap_resamples_within_tag(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    config = GeneratorConfig(method=GeneratorMethod.BOOTSTRAP, seed=3)
    synth = generate_synthetic(table, config)
    originals: dict[str, set[float]] = {}
    for rec in table:
        originals.setdefault(rec.layer_tag, set()).add(rec.trust)
    for rec in synth:
        assert rec.trust in originals[rec.layer_tag]


def test_rebuild_round_trip_identity(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    rebuilt, report = rebuild_trust(table, demo_trust.by_tag())
    assert report.records == 68 and report.dropped_diagonal == 0
    for tag, matrix in demo_trust.by_tag().items():
        assert np.allclose(rebuilt[tag].values, matrix.values, atol=1e-12), tag


def test_rebuild_drops_and_counts_diagonal_records(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    table = table + [EdgeRecord(layer_tag="h", src="H1", dst="H1", trust=0.9),
                     EdgeRecord(layer_tag="p", src="P2", dst="P2", trust=0.4)]
    rebuilt, report = rebuild_trust(table, demo_trust.by_tag())
    assert report.dropped_diagonal == 2
    assert report.dropped_by_tag == {"h": 1, "p": 1}
    assert rebuilt["h"].values[0, 0] == 0.0
    assert rebuilt["h"].violations() == []


def test_rebuild_renormalizes_rows(demo_trust):
    # single surviving edge in a row gets the full trust mass
    shapes = demo_trust.by_tag()
    table = [EdgeRecord(layer_tag="h", src="H1", dst="H2", trust=0.123)]
    rebuilt, _ = rebuild_trust(table, shapes)
    h = rebuilt["h"]
    assert h.values[0, 1] == 1.0
    assert h.values.sum() == 1.0  # all other rows stay zero


def test_rebuild_rejects_unknown_ids(demo_trust):
    shapes = demo_trust.by_tag()
    with pytest.raises(OutOfShapeError):
        rebuild_trust([EdgeRecord(layer_tag="h", src="H9", dst="H1", trust=0.5)], shapes)
    with pytest.raises(OutOfShapeError):
        rebuild_trust([EdgeRecord(layer_tag="dh", src="D1", dst="H9", trust=0.5)], shapes)


def test_rebuild_rejects_missing_shape():
    with pytest.raises(OutOfShapeError):
        rebuild_trust([EdgeRecord(layer_tag="h", src="H1", dst="H2", trust=0.5)], {})


def test_stress_compare_identical_scores(demo_network, demo_trust):
    scores = demo_scores(demo_network, demo_trust)
    reports = stress_compare(scores, scores, ks={layer: [3] for layer in LayerId})
    assert len(reports) == 3
    for report in reports:
        assert report.spearman == 1.0 and report.kendall == 1.0
        assert report.precision == 1.0
        assert report.baseline == "synthetic_scores"


def test_run_stress_identity_reproduces_scores(demo_network, demo_trust):
    true_scores = demo_scores(demo_network, demo_trust)
    runs = run_stress(demo_trust, true_scores, GeneratorConfig(method=GeneratorMethod.IDENTITY),
                      seeds=[5])
    assert len(runs) == 1
    run = runs[0]
    assert run.seed == 5 and len(run.pairs) == 68
    for layer in LayerId:
        assert run.scores[layer].result.scores.values == pytest.approx(
            true_scores[layer].result.scores.values.tolist(), abs=1e-12)
    assert all(r.spearman == 1.0 for r in run.reports)


def test_run_stress_deterministic_per_seed(demo_network, demo_trust):
    true_scores = demo_scores(demo_network, demo_trust)
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=200.0)
    a = run_stress(demo_trust, true_scores, config, seeds=[7, 8])
    b = run_stress(demo_trust, true_scores, config, seeds=[7, 8])
    assert len(a) == len(b) == 2
    for run_a, run_b in zip(a, b):
        assert run_a.pairs == run_b.pairs
        for layer in LayerId:
            assert (run_a.scores[layer].result.scores.values
                    == run_b.scores[layer].result.scores.values).all()
    # distinct seeds produce distinct synthetic tables
    assert a[0].pairs != a[1].pairs
    assert a[0].reports[0].scenario == "dirichlet/seed=7"
