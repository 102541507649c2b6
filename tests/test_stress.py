from __future__ import annotations

import numpy as np
import pytest

from trustprop import (
    ConvergenceConfig,
    EdgeTable,
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


def edges(*rows: tuple[str, str, str, float]) -> EdgeTable:
    return EdgeTable(*zip(*rows))


def test_edge_table_validation():
    table = edges(("hd", "H1", "D1", 0.5), ("h", "H1", "H2", 0.0))
    assert len(table) == 2 and table.trust.dtype == np.float64
    with pytest.raises(ValueError):
        table.trust[0] = 0.9  # columns are read-only
    with pytest.raises(InputError):
        edges(("hp", "H1", "P1", 0.5))
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            edges(("h", "H1", "H2", bad))
    with pytest.raises(InputError):
        EdgeTable(["h", "h"], ["H1", "H2"], ["H2", "H1"], [0.5])


def test_export_covers_all_nonzero_cells(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    assert len(table) == 68
    by_tag = {}
    for tag in table.tag:
        by_tag[tag] = by_tag.get(tag, 0) + 1
    assert by_tag == {"h": 12, "d": 6, "p": 18, "hd": 8, "dh": 8, "dp": 8, "pd": 8}
    assert (table.trust > 0).all()


def test_edge_table_csv_round_trip(tmp_path, demo_trust):
    hostile = edges(("h", "H,1", 'H"2', 0.25), ("pd", "Dr. Müller", "Kardiologie, Nord", 0.5),
                    ("dh", '"D1"', "H\n3", 0.125))
    for table in (export_edge_table(demo_trust.all_matrices()), hostile):
        path = tmp_path / "edges.csv"
        write_edge_table(table, path)
        assert path.read_text(encoding="utf-8").startswith("# schema: trust-edges/1\n")
        again = read_edge_table(path)
        assert len(again) == len(table)
        for column in ("tag", "src", "dst"):
            assert getattr(again, column).tolist() == getattr(table, column).tolist()
        assert again.trust == pytest.approx(table.trust.tolist(), abs=1e-12)


def test_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("# schema: trust-edges/2\nlayer,src,dst,trust\n", encoding="utf-8")
    with pytest.raises(SchemaVersionError):
        read_edge_table(path)


def test_read_rejects_malformed_row(tmp_path):
    path = tmp_path / "edges.csv"
    # an edges.csv value is an exported positive cell: zero is malformed there
    for row in ("h,H1,H2,not-a-number", "h,H1,H2,0", "h,H1,H2,-0.1", "h,H1,H2,nan",
                "h,H1,H2,inf", "hp,H1,P1,0.5", "h,H,1,H2,0.5"):
        path.write_text(f"# schema: trust-edges/1\nlayer,src,dst,trust\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            read_edge_table(path)


def test_identity_generator_copies(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    synth = generate_synthetic(table, GeneratorConfig(method=GeneratorMethod.IDENTITY))
    assert synth.trust.tolist() == table.trust.tolist()


def test_generate_from_empty_table_rejected():
    with pytest.raises(EmptyTableError):
        generate_synthetic(EdgeTable([], [], [], []), GeneratorConfig())


def test_dirichlet_rows_remain_distributions(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=50.0, seed=9)
    synth = generate_synthetic(table, config)
    rows: dict[tuple[str, str], float] = {}
    for tag, src, value in zip(synth.tag, synth.src, synth.trust):
        rows[(tag, src)] = rows.get((tag, src), 0.0) + value
    for key, total in rows.items():
        assert total == pytest.approx(1.0, abs=1e-9), key
    # same seed, same draw; different seed, different draw
    again = generate_synthetic(table, config)
    assert again.trust.tolist() == synth.trust.tolist()
    other = generate_synthetic(table, GeneratorConfig(method=GeneratorMethod.DIRICHLET,
                                                      concentration=50.0, seed=10))
    assert (other.trust != synth.trust).any()


def test_high_concentration_hugs_original(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=1e8, seed=1)
    synth = generate_synthetic(table, config)
    assert synth.trust == pytest.approx(table.trust.tolist(), abs=1e-2)


def test_bootstrap_resamples_within_tag(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    config = GeneratorConfig(method=GeneratorMethod.BOOTSTRAP, seed=3)
    synth = generate_synthetic(table, config)
    originals: dict[str, set[float]] = {}
    for tag, value in zip(table.tag, table.trust.tolist()):
        originals.setdefault(tag, set()).add(value)
    for tag, value in zip(synth.tag, synth.trust.tolist()):
        assert value in originals[tag]


def test_generators_match_per_row_loop(demo_trust):
    # shuffled, so that no (tag, src) row or tag is contiguous in the table
    exported = export_edge_table(demo_trust.all_matrices())
    order = np.random.default_rng(0).permutation(len(exported))
    table = EdgeTable(*(getattr(exported, c)[order] for c in ("tag", "src", "dst", "trust")))
    for method, key in ((GeneratorMethod.DIRICHLET, lambda i: (table.tag[i], table.src[i])),
                        (GeneratorMethod.BOOTSTRAP, lambda i: table.tag[i])):
        groups: dict = {}
        for i in range(len(table)):
            groups.setdefault(key(i), []).append(i)
        rng = np.random.default_rng(4)
        expected = np.empty(len(table))
        for indices in groups.values():
            values = table.trust[indices]
            expected[indices] = (rng.dirichlet(50.0 * values)
                                 if method is GeneratorMethod.DIRICHLET
                                 else rng.choice(values, size=len(indices), replace=True))
        config = GeneratorConfig(method=method, concentration=50.0, seed=4)
        assert np.array_equal(generate_synthetic(table, config).trust, expected), method


def test_rebuild_round_trip_identity(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    rebuilt, report = rebuild_trust(table, demo_trust.by_tag())
    assert report.records == 68 and report.dropped_diagonal == 0
    for tag, matrix in demo_trust.by_tag().items():
        assert np.allclose(rebuilt[tag].values, matrix.values, atol=1e-12), tag


def test_rebuild_drops_and_counts_diagonal_records(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    extra = edges(("h", "H1", "H1", 0.9), ("p", "P2", "P2", 0.4))
    table = EdgeTable(*(np.concatenate([getattr(table, c), getattr(extra, c)])
                        for c in ("tag", "src", "dst", "trust")))
    rebuilt, report = rebuild_trust(table, demo_trust.by_tag())
    assert report.dropped_diagonal == 2
    assert report.dropped_by_tag == {"h": 1, "p": 1}
    assert rebuilt["h"].values[0, 0] == 0.0
    assert rebuilt["h"].violations() == []


def test_rebuild_renormalizes_rows(demo_trust):
    # single surviving edge in a row gets the full trust mass
    shapes = demo_trust.by_tag()
    table = edges(("h", "H1", "H2", 0.123))
    rebuilt, _ = rebuild_trust(table, shapes)
    h = rebuilt["h"]
    assert h.values[0, 1] == 1.0
    assert h.values.sum() == 1.0  # all other rows stay zero


def test_rebuild_rejects_unknown_ids(demo_trust):
    shapes = demo_trust.by_tag()
    with pytest.raises(OutOfShapeError):
        rebuild_trust(edges(("h", "H9", "H1", 0.5)), shapes)
    with pytest.raises(OutOfShapeError):
        rebuild_trust(edges(("dh", "D1", "H9", 0.5)), shapes)


def test_rebuild_rejects_missing_shape():
    with pytest.raises(OutOfShapeError):
        rebuild_trust(edges(("h", "H1", "H2", 0.5)), {})


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
    assert run.seed == 5 and len(run.edges) == len(run.synthetic) == 68
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
    assert a[0].edges is a[1].edges  # one exported table shared by every run
    for run_a, run_b in zip(a, b):
        for column in ("tag", "src", "dst"):
            assert (getattr(run_a.synthetic, column) == getattr(run_a.edges, column)).all()
        assert run_a.synthetic.trust.tolist() == run_b.synthetic.trust.tolist()
        for layer in LayerId:
            assert (run_a.scores[layer].result.scores.values
                    == run_b.scores[layer].result.scores.values).all()
    # distinct seeds produce distinct synthetic tables
    assert (a[0].synthetic.trust != a[1].synthetic.trust).any()
    assert a[0].reports[0].scenario == "dirichlet/seed=7"


def test_run_stress_tolerates_zero_dirichlet_draws(demo_network, demo_trust):
    # at tiny concentrations draws underflow to exact zeros, which rebuild as absent cells
    true_scores = demo_scores(demo_network, demo_trust)
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=0.01)
    runs = run_stress(demo_trust, true_scores, config, seeds=[1, 2, 3])
    assert any((run.synthetic.trust == 0).any() for run in runs)
    for run in runs:
        rebuilt, _ = rebuild_trust(run.synthetic, demo_trust.by_tag())
        for matrix in rebuilt.values():
            assert matrix.violations() == [], matrix.tag
