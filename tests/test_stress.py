from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import (
    ConvergenceConfig,
    EdgeTable,
    GeneratorConfig,
    GeneratorMethod,
    LayerId,
    ResidualConfig,
    TrustMatrix,
    build_network,
    derive_network_trust,
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
from trustprop import model, stress
from trustprop.errors import InputError, MalformedRowError
from trustprop.ingest import EntityStore
from trustprop.stress import trust_network_from_tags

from test_builder import make_department, make_doctor, make_hospital, random_store


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


def dense_records(matrices) -> list[tuple[str, str, str, float]]:
    """The oracle: each nonzero cell of each matrix in turn as (tag, src, dst, trust),
    found by a dense scan, row-major."""
    return [(m.tag, m.row_ids[i], m.col_ids[j], float(m.values[i, j]))
            for m in matrices for i, j in zip(*np.nonzero(m.values))]


def test_export_covers_all_nonzero_cells(demo_network, demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    assert len(table) == 68
    by_tag = {}
    for tag in table.tag:
        by_tag[tag] = by_tag.get(tag, 0) + 1
    assert by_tag == {"h": 12, "d": 6, "p": 18, "hd": 8, "dh": 8, "dp": 8, "pd": 8}
    assert (table.trust > 0).all()
    for network in stress_networks(demo_network):
        matrices = derive_network_trust(network).all_matrices()
        # a tag given twice leaves the table plain: it is named when it is made
        for source in (matrices, matrices + matrices[:1]):
            table = export_edge_table(source)
            assert (table._support is None) == (source is not matrices)
            for column in (table.tag, table.src, table.dst):
                assert column.dtype == object and not column.flags.writeable
            records = zip(table.tag.tolist(), table.src.tolist(), table.dst.tolist(),
                          table.trust.tolist())
            assert list(records) == dense_records(source)


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
    with pytest.raises(InputError,
                       match="expected schema 'trust-edges/1', found 'trust-edges/2'"):
        read_edge_table(path)


def test_read_rejects_malformed_row(tmp_path):
    path = tmp_path / "edges.csv"
    # an edges.csv value is an exported positive cell: zero is malformed there
    for row in ("h,H1,H2,not-a-number", "h,H1,H2,0", "h,H1,H2,-0.1", "h,H1,H2,nan",
                "h,H1,H2,inf", "hp,H1,P1,0.5", "h,H,1,H2,0.5"):
        path.write_text(f"# schema: trust-edges/1\nlayer,src,dst,trust\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            read_edge_table(path)


def test_write_refuses_a_zero_draw(tmp_path, demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    # a concentration this small draws trust values that underflow to zero
    synth = generate_synthetic(table, GeneratorConfig(method=GeneratorMethod.DIRICHLET,
                                                      concentration=0.01, seed=1))
    path = tmp_path / "edges.csv"
    with pytest.raises(InputError, match=re.escape(
            f"edge trust must be positive to be written to {path}, got 0.0 (h: H1->H3)")):
        write_edge_table(synth, path)
    assert not path.exists()


def test_identity_generator_copies(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    synth = generate_synthetic(table, GeneratorConfig(method=GeneratorMethod.IDENTITY))
    assert synth.trust.tolist() == table.trust.tolist()


def test_generate_from_empty_table_returns_empty():
    empty = EdgeTable([], [], [], [])
    for method in GeneratorMethod:
        synth = generate_synthetic(empty, GeneratorConfig(method=method, seed=3))
        assert len(synth) == 0
        assert synth.trust.dtype == float


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


def per_row_dirichlet(table: EdgeTable, concentration: float, seed: int) -> np.ndarray:
    """The oracle: one ``rng.dirichlet`` call per (tag, src) row, rows in first-appearance order."""
    rows: dict = {}
    for i, key in enumerate(zip(table.tag.tolist(), table.src.tolist())):
        rows.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    expected = np.empty(len(table))
    for indices in rows.values():
        expected[indices] = rng.dirichlet(concentration * table.trust[indices])
    return expected


def assert_dirichlet_per_row(table: EdgeTable, concentration: float, seed: int = 4):
    config = GeneratorConfig(method=GeneratorMethod.DIRICHLET, concentration=concentration,
                             seed=seed)
    drawn = generate_synthetic(table, config).trust
    assert drawn.tobytes() == per_row_dirichlet(table, concentration, seed).tobytes()


def largest_alpha_per_row(table: EdgeTable, concentration: float) -> np.ndarray:
    rows: dict = {}
    for key, value in zip(zip(table.tag.tolist(), table.src.tolist()), table.trust.tolist()):
        rows[key] = max(rows.get(key, 0.0), concentration * value)
    return np.array(list(rows.values()))


def hd_matrix(rows: list[list[float]]) -> TrustMatrix:
    """Hospital x department trust whose row i holds ``rows[i]`` in its first columns."""
    width = max(map(len, rows))
    values = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        values[i, :len(row)] = row
    return TrustMatrix(rows=LayerId.HOSPITAL, cols=LayerId.DEPARTMENT,
                       row_ids=tuple(f"H{i}" for i in range(len(rows))),
                       col_ids=tuple(f"D{j}" for j in range(width)), values=values)


def shuffled(table: EdgeTable, seed: int) -> EdgeTable:
    order = np.random.default_rng(seed).permutation(len(table))
    return EdgeTable(*(getattr(table, c)[order] for c in ("tag", "src", "dst", "trust")))


def test_carried_table_draws_as_per_row_dirichlet(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    assert table._support is not None
    for concentration in (50.0, 1000.0, 1e6):
        assert_dirichlet_per_row(table, concentration)


@pytest.mark.parametrize("concentration", [0.12, 0.2, 0.25])
def test_rows_on_both_of_numpys_dirichlet_algorithms_draw_as_per_row(demo_trust,
                                                                     concentration):
    """numpy draws a row whose largest alpha is below 0.1 by stick-breaking, and any
    other row by normalised gammas; a table with rows of both kinds draws in order."""
    table = export_edge_table(demo_trust.all_matrices())
    largest = largest_alpha_per_row(table, concentration)
    assert (largest < 0.1).any() and (largest >= 0.1).any()
    for candidate in (table, plain_copy(table), shuffled(table, 0)):
        assert_dirichlet_per_row(candidate, concentration)


def test_largest_alpha_of_exactly_a_tenth_draws_as_per_row():
    # with concentration 1, row 0's largest alpha is 0.1 (gammas) and row 1's is the
    # float just below it (stick-breaking); rows 2 and 3 are one record each
    below = np.nextafter(0.1, 0.0)
    table = export_edge_table([hd_matrix([[0.1, 0.05, 0.1], [below, 0.02], [0.1], [below]])])
    assert largest_alpha_per_row(table, 1.0).tolist() == [0.1, below, 0.1, below]
    for candidate in (table, plain_copy(table), shuffled(table, 1)):
        assert_dirichlet_per_row(candidate, 1.0)


def test_one_record_rows_draw_as_per_row():
    # a one-record row on the stick-breaking side draws no gamma, so the rows after it
    # see the generator where per-row calls leave it
    matrix = hd_matrix([[0.5], [0.02], [0.3, 0.4], [0.05], [1.0], [0.01, 0.02]])
    table = export_edge_table([matrix])
    for concentration in (0.5, 1.0, 10.0):
        for candidate in (table, plain_copy(table)):
            assert_dirichlet_per_row(candidate, concentration)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6), min_size=1,
                max_size=12),
       st.floats(-3.0, 6.0).map(lambda exponent: 10.0 ** exponent),
       st.integers(0, 2 ** 32 - 1))
def test_dirichlet_draws_as_per_row_dirichlet(rows, concentration, seed):
    table = export_edge_table([hd_matrix(rows)])
    assert table._support is not None
    for candidate in (table, shuffled(table, seed)):
        assert_dirichlet_per_row(candidate, concentration, seed)


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
    with pytest.raises(InputError, match=r"h: record \(H9,H1\) falls outside the matrix ids"):
        rebuild_trust(edges(("h", "H9", "H1", 0.5)), shapes)
    with pytest.raises(InputError, match=r"dh: record \(D1,H9\) falls outside the matrix ids"):
        rebuild_trust(edges(("dh", "D1", "H9", 0.5)), shapes)


@pytest.mark.parametrize("kind", ["unicode", "object", "tuple"])
def test_positions_find_each_id_and_mark_absent_ones(kind):
    """Each name's index among the ids, -1 for a name that is not one, from a numpy
    string column, an object column like an edge table's, or a tuple of ids."""
    ids = ("P01", "P02", "Café", "P10")
    names = ["P10", "P01", "P99", "Café", "", "P01", "p01"]
    column = {"unicode": np.array(names), "object": np.array(names, dtype=object),
              "tuple": tuple(names)}[kind]
    # the lookup it replaces, one numpy scalar at a time, kept as the oracle
    expected = [dict(zip(ids, range(len(ids)))).get(name, -1) for name in np.asarray(column)]
    positions = stress._positions(ids, column)
    assert positions.dtype == np.intp
    assert positions.tolist() == expected == [3, 0, -1, 2, -1, 0, -1]
    assert stress._positions(ids, np.array([], dtype=object)).tolist() == []


def test_rebuild_rejects_repeated_cell(demo_trust):
    table = edges(("dp", "D1", "P1", 0.5), ("dp", "D1", "P2", 0.2), ("dp", "D1", "P1", 0.3))
    with pytest.raises(InputError, match="more than once"):
        rebuild_trust(table, demo_trust.by_tag())


def test_rebuild_rejects_missing_shape():
    with pytest.raises(InputError, match="record tag 'h' has no target matrix"):
        rebuild_trust(edges(("h", "H1", "H2", 0.5)), {})


def test_stress_compare_identical_scores(demo_network, demo_trust, caplog):
    scores = demo_scores(demo_network, demo_trust)
    with caplog.at_level("WARNING", logger="trustprop"):
        reports = stress_compare(scores, scores, ks={layer: [3, 99] for layer in LayerId})
    assert len(reports) == 3
    assert any("k=99" in record.message for record in caplog.records)
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


def plain_copy(table: EdgeTable) -> EdgeTable:
    """The same records without the cells export_edge_table resolved them to."""
    return EdgeTable(table.tag, table.src, table.dst, table.trust)


def stress_networks(demo_network):
    rng = np.random.default_rng(17)
    # one hospital has no peer, so the hospital trust matrix is empty; with one
    # department, the last row of dp and the first row of dh share index 0
    sizes = [(3, 4, 7), (1, 3, 5), (2, 1, 4), (5, 6, 9)]
    return [demo_network] + [build_network(random_store(rng, *size)) for size in sizes]


@pytest.mark.parametrize("method, concentration", [
    (GeneratorMethod.IDENTITY, 1000.0), (GeneratorMethod.DIRICHLET, 1000.0),
    (GeneratorMethod.DIRICHLET, 0.01), (GeneratorMethod.BOOTSTRAP, 1000.0)])
def test_run_stress_equals_the_public_steps_on_an_index_less_table(demo_network, method,
                                                                   concentration):
    for network in stress_networks(demo_network):
        trusts = derive_network_trust(network)
        true_scores = demo_scores(network, trusts)
        residuals = {layer: scores.residual for layer, scores in true_scores.items()}
        shapes = trusts.by_tag()
        ks = {layer: [2] for layer in LayerId}
        generator = GeneratorConfig(method=method, concentration=concentration)
        table = export_edge_table(trusts.all_matrices())
        assert table._support is not None and plain_copy(table)._support is None
        runs = run_stress(trusts, true_scores, generator, [3, 4], ks=ks)
        for run in runs:
            config = replace(generator, seed=run.seed)
            synthetic = generate_synthetic(plain_copy(table), config)
            assert synthetic._support is None
            assert run.synthetic._support is not None
            assert run.synthetic.trust.tobytes() == synthetic.trust.tobytes()
            rebuilt, report = rebuild_trust(synthetic, shapes)
            assert run.rebuild == report
            again, _ = rebuild_trust(run.synthetic, shapes)
            for tag, matrix in rebuilt.items():
                assert again[tag].values.tobytes() == matrix.values.tobytes(), tag
            scores = score_network(trust_network_from_tags(rebuilt), residuals)
            for layer in LayerId:
                assert (run.scores[layer].result.scores.values.tobytes()
                        == scores[layer].result.scores.values.tobytes())
            assert run.reports == stress_compare(true_scores, scores, ks,
                                                 scenario=f"{method.value}/seed={run.seed}")


@pytest.mark.parametrize("method", list(GeneratorMethod))
def test_a_carried_stress_run_never_names_its_records(monkeypatch, demo_network, method):
    """run_stress reads the carried cells: it builds no tag, src or dst column and
    passes no cell through from_cells' checks, on sparse and dense doctor blocks."""
    dense = build_network(random_store(np.random.default_rng(17), 5, 6, 9))
    doctors = derive_network_trust(dense).intra[LayerId.DOCTOR]
    assert doctors.nonzero_count >= doctors.values.size / 8

    def refuse(*args):
        raise AssertionError("a carried stress run named its records or checked its cells")

    for network in (demo_network, dense):
        trusts = derive_network_trust(network)
        true_scores = demo_scores(network, trusts)
        with monkeypatch.context() as patch:
            for module, name in ((stress, "_names"), (stress, "from_cells"),
                                 (model, "from_cells")):
                patch.setattr(module, name, refuse)
            runs = run_stress(trusts, true_scores, GeneratorConfig(method=method), [3, 4])
        # the names, once read, are built once for the exported table and its copies
        assert runs[0].edges.src is runs[1].synthetic.src
        assert runs[1].edges.tag is runs[0].synthetic.tag


def test_carried_cells_against_other_ids_resolve_by_name(demo_trust):
    table = export_edge_table(demo_trust.all_matrices())
    shapes = demo_trust.by_tag()
    # reversed ids in two matrices: the same cells lie elsewhere
    moved = dict(shapes)
    for tag in ("p", "dp"):
        m = shapes[tag]
        moved[tag] = replace(m, row_ids=m.row_ids[::-1], col_ids=m.col_ids[::-1],
                             values=np.zeros(m.shape))
    for target in (shapes, moved):
        carried, plain = rebuild_trust(table, target), rebuild_trust(plain_copy(table), target)
        assert carried[1] == plain[1]
        for tag, matrix in plain[0].items():
            assert carried[0][tag].values.tobytes() == matrix.values.tobytes(), tag
    assert not np.array_equal(rebuild_trust(table, moved)[0]["p"].values, shapes["p"].values)
    # a doctor missing from the ids: the same error either way
    m = shapes["pd"]
    short = {**shapes, "pd": replace(m, row_ids=m.row_ids[:-1], values=np.zeros(m.shape)[:-1])}
    for candidate in (table, plain_copy(table)):
        with pytest.raises(InputError,
                           match=rf"pd: record \({m.row_ids[-1]},D\d\) falls outside the matrix ids"):
            rebuild_trust(candidate, short)


def test_carried_diagonal_is_found_by_name_not_by_index():
    """An intra matrix whose columns run in the opposite order to its rows: its
    diagonal-by-name cells are (0,2), (1,1) and (2,0), and both tables drop all three."""
    ids = ("H1", "H2", "H3")
    m = TrustMatrix(rows=LayerId.HOSPITAL, cols=LayerId.HOSPITAL, row_ids=ids,
                    col_ids=ids[::-1], values=np.full((3, 3), 1 / 3))
    table = export_edge_table([m])
    assert table._support is not None
    carried, plain = rebuild_trust(table, {"h": m}), rebuild_trust(plain_copy(table), {"h": m})
    assert carried[1] == plain[1]
    assert carried[1].dropped_diagonal == 3
    assert carried[0]["h"].values.tobytes() == plain[0]["h"].values.tobytes()


def test_matrices_sharing_a_tag_export_without_cells(demo_trust):
    h = demo_trust.intra[LayerId.HOSPITAL]
    table = export_edge_table([h, h])
    assert table._support is None
    with pytest.raises(InputError, match="more than once"):
        rebuild_trust(table, demo_trust.by_tag())


def sparse_store(n_doctors=120, n_hospitals=20):
    """Doctor i works at hospital i mod n_hospitals and in department i mod 2 n_hospitals,
    so with the defaults every block is less than an eighth full."""
    doctors = {f"P{i:03d}": make_doctor(f"P{i:03d}", {f"H{i % n_hospitals:02d}"},
                                        {f"D{i % (2 * n_hospitals):02d}"}, score=float(i % 7 + 1))
               for i in range(n_doctors)}
    members, hosts, departments = {}, {}, {}
    for ident, doctor in doctors.items():
        for d in doctor.department_ids:
            members.setdefault(d, set()).add(ident)
            hosts.setdefault(d, set()).update(doctor.hospital_ids)
            for h in doctor.hospital_ids:
                departments.setdefault(h, set()).add(d)
    return EntityStore(
        doctors=doctors, hospitals={h: make_hospital(h, ds) for h, ds in departments.items()},
        departments={d: make_department(d, members[d], hosts[d]) for d in members})


@pytest.mark.parametrize("sparse", [False, True])
def test_each_trust_matrix_is_scanned_once(monkeypatch, demo_store, sparse):
    """A built block is stored as its cells, so deriving trust scans no block, and
    derived trust is kept as its cells, so scoring three times and exporting once scan
    no trust matrix: products over the cells and the edge table read the same read-only
    arrays."""
    network = build_network(sparse_store() if sparse else demo_store)
    scanned = []
    scan = model.nonzero_cells

    def counted(values):
        scanned.append(values)
        return scan(values)

    monkeypatch.setattr(model, "nonzero_cells", counted)
    trusts = derive_network_trust(network)
    matrices = trusts.all_matrices()
    assert {m.nonzero_count < math.prod(m.shape) / 8 for m in matrices} == {sparse}
    assert scanned == []
    for _ in range(3):
        demo_scores(network, trusts)
    table = export_edge_table(matrices)
    assert scanned == []
    for m in matrices:
        assert sum(values is m.values for values in scanned) == 0, m.tag
        for cached, fresh in zip(m.cells, scan(m.values)):
            assert not cached.flags.writeable
            assert np.array_equal(cached, fresh), m.tag
        assert table._support.matrices[m.tag] is m


def test_rebuild_keeps_one_array_per_matrix():
    """Each rebuilt matrix keeps the grid its cells were scattered into, normalised
    in place: what a rebuild frees again stays under half the largest matrix."""
    trusts = derive_network_trust(build_network(sparse_store(1200)))
    matrices = trusts.all_matrices()
    assert all(m.nonzero_count < m.values.size / 8 for m in matrices)
    table = export_edge_table(matrices)
    tracemalloc.start()
    try:
        rebuilt, _ = rebuild_trust(table, trusts.by_tag())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = max(m.values.nbytes for m in rebuilt.values())
    assert peak - held <= largest / 2
