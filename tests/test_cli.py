from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import random
import warnings

import pytest

import trustprop
import trustprop.cli
import trustprop.ingest
from trustprop import (AdjacencyBlock, TrustMatrix, build_network, bundle, clean,
                       derive_network_trust, parse_store)
from trustprop.bundle import load_network
from trustprop.cli import _score, load_config, main
from trustprop.ingest import baseline_columns, ground_truth_ratings, inputs_sha256
from trustprop.metrics import layer_reports
from trustprop.model import LAYERS

DEMO = Path(__file__).parent / "fixtures" / "demo"


def run_pipeline(config_path, out_dir, commands=("build", "trust", "score", "eval", "stress")):
    for command in commands:
        code = main([command, "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0, command


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def test_full_pipeline_exits_zero(out):
    run_pipeline(DEMO / "config.json", out)
    assert main(["report", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["layers"] == {"hospital": 4, "department": 4, "doctor": 5}
    assert all(report["artifacts"].values())


def test_scores_file_records_convergence(out):
    run_pipeline(DEMO / "config.json", out, commands=("build", "score"))
    rows = read_csv(out / "scores_department.csv")
    assert [row["entity_id"] for row in rows] == ["D1", "D2", "D3", "D4"]
    assert all(row["converged"] == "false" for row in rows)  # two-cycle structure
    hospital = read_csv(out / "scores_hospital.csv")
    assert all(row["converged"] == "true" for row in hospital)
    assert float(hospital[0]["initial"]) == pytest.approx(8 / 15, abs=1e-9)


def test_zero_iteration_budget_reports_initial_scores(tmp_path, out):
    config = json.loads((DEMO / "config.json").read_text())
    config["convergence"]["max_iterations"] = 0
    for key, value in config["inputs"].items():
        config["inputs"][key] = str(DEMO / value)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run_pipeline(config_path, out, commands=("build", "score"))
    rows = read_csv(out / "scores_hospital.csv")
    for row in rows:
        assert row["converged"] == "false"
        assert row["iterations"] == "0"
        assert row["final"] == row["initial"]


def test_eval_writes_social_and_baseline_rows(out):
    run_pipeline(DEMO / "config.json", out, commands=("build", "eval"))
    rows = read_csv(out / "metrics.csv")
    social = [r for r in rows if r["baseline"] == "social_score"]
    static = [r for r in rows if r["baseline"] != "social_score"]
    assert {r["scenario"] for r in social} == {"uniform", "normal", "skewed"}
    assert all(r["scenario"] == "" for r in static)
    assert {r["layer"] for r in rows} == {"hospital", "department", "doctor"}
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["schema_version"] == 1
    assert len(payload["reports"]) == len(rows)


def test_eval_is_deterministic(tmp_path):
    """All six commands give the same bytes under different string hash seeds."""
    script = ("import sys; from trustprop.cli import main\n"
              "for command in ('build', 'trust', 'score', 'eval', 'stress', 'report'):\n"
              "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n")
    outputs = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / hash_seed
        subprocess.run([sys.executable, "-c", script, str(DEMO / "config.json"), str(out_dir)],
                       env={**os.environ, "PYTHONHASHSEED": hash_seed},
                       check=True, capture_output=True)
        outputs.append({path.name: path.read_bytes() for path in sorted(out_dir.iterdir())})
    assert len(outputs[0]) == 15
    assert outputs[0] == outputs[1]


def test_seed_override_changes_scenario_draws(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir, seed in ((out_a, "7"), (out_b, "8")):
        for command in ("build", "eval"):
            code = main([command, "--config", str(DEMO / "config.json"),
                         "--out", str(out_dir), "--seed", seed])
            assert code == 0
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_scenario_draws_do_not_depend_on_the_scenario_list(tmp_path):
    config = json.loads((DEMO / "config.json").read_text())
    for key, value in config["inputs"].items():
        config["inputs"][key] = str(DEMO / value)
    config["evaluation"]["scenarios"] = ["normal"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run_pipeline(DEMO / "config.json", tmp_path / "default", commands=("build", "eval"))
    run_pipeline(config_path, tmp_path / "normal", commands=("build", "eval"))

    def normal_rows(out_dir):
        reports = json.loads((out_dir / "metrics.json").read_text())["reports"]
        return [report for report in reports if report["scenario"] == "normal"]

    assert normal_rows(tmp_path / "normal")
    assert normal_rows(tmp_path / "normal") == normal_rows(tmp_path / "default")


def test_stress_outputs_pair_table(out):
    run_pipeline(DEMO / "config.json", out)
    pairs = read_csv(out / "stress_pairs.csv")
    assert len(pairs) == 2 * 68  # two seeds
    assert {row["seed"] for row in pairs} == {"11", "12"}
    payload = json.loads((out / "stress.json").read_text())
    assert payload["generator"] == "dirichlet"
    assert [run["seed"] for run in payload["runs"]] == [11, 12]


def test_commands_requiring_bundle_exit_two_without_build(out):
    for command in ("trust", "score", "eval", "stress"):
        assert main([command, "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2


def test_missing_input_file_exits_two(tmp_path, out):
    config = json.loads((DEMO / "config.json").read_text())
    config["inputs"] = {k: str(tmp_path / "nope.csv") for k in config["inputs"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["build", "--config", str(config_path), "--out", str(out)]) == 2


def test_malformed_input_row_exits_two(tmp_path, out):
    for name in ("doctors", "hospitals", "departments"):
        shutil.copy(DEMO / f"{name}.csv", tmp_path / f"{name}.csv")
    bad = (tmp_path / "doctors.csv").read_text().replace(",96,", ",960,")
    (tmp_path / "doctors.csv").write_text(bad)
    config = json.loads((DEMO / "config.json").read_text())
    config["inputs"] = {k: f"{k}.csv" for k in config["inputs"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["build", "--config", str(config_path), "--out", str(out)]) == 2


def test_input_table_that_repeats_a_column_exits_two(tmp_path, out, caplog):
    for name in ("doctors.csv", "hospitals.csv", "departments.csv", "config.json"):
        shutil.copy(DEMO / name, tmp_path / name)
    lines = (tmp_path / "hospitals.csv").read_text().splitlines()
    (tmp_path / "hospitals.csv").write_text(
        "".join(f"{line},{'rating' if i == 0 else '0.5'}\n" for i, line in enumerate(lines)))
    with caplog.at_level("ERROR", logger="trustprop"):
        assert main(["build", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert "repeated column(s) rating" in caplog.text
    assert not (out / "network.json").exists()


def test_input_table_that_is_not_utf8_exits_two(tmp_path, out):
    for name in ("doctors.csv", "hospitals.csv", "departments.csv", "config.json"):
        shutil.copy(DEMO / name, tmp_path / name)
    with open(tmp_path / "doctors.csv", "ab") as handle:
        handle.write(b"P6,Caf\xe9,H1,D1,7,10,5,80,50,20,true,true\n")
    assert main(["build", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2


def refuse_to_parse(monkeypatch):
    """Make every importable ``parse_store`` and ``clean`` raise."""
    def refuse(*_):
        raise AssertionError("the input tables were parsed")

    for module in (trustprop, trustprop.cli, trustprop.ingest):
        monkeypatch.setattr(module, "parse_store", refuse)
        monkeypatch.setattr(module, "clean", refuse)


def copy_demo(directory):
    for name in ("doctors.csv", "hospitals.csv", "departments.csv", "config.json"):
        shutil.copy(DEMO / name, directory / name)


def digest_message(tables, out):
    """The refusal of a bundle built from other input tables than those in ``tables``."""
    built = load_network(out / "network.json").provenance["inputs_sha256"]
    now = inputs_sha256([(tables / name).read_bytes()
                         for name in ("doctors.csv", "hospitals.csv", "departments.csv")])
    return (f"{out / 'network.json'} was built with inputs_sha256 {built!r} (now {now!r}); "
            "run the build command again")


def drop_last_doctor(directory, out):
    doctors = directory / "doctors.csv"
    doctors.write_text("".join(doctors.read_text().splitlines(keepends=True)[:-1]))
    return digest_message(directory, out)


def test_eval_on_inputs_changed_since_build_exits_two(tmp_path, out, caplog, monkeypatch):
    copy_demo(tmp_path)
    run_pipeline(tmp_path / "config.json", out, commands=("build",))
    message = drop_last_doctor(tmp_path, out)
    # the digest alone refuses the tables: eval parses none of them
    refuse_to_parse(monkeypatch)
    with caplog.at_level("ERROR", logger="trustprop"):
        assert main(["eval", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert [record.message for record in caplog.records] == [message]
    assert not (out / "metrics.csv").exists()


def test_eval_on_memberships_changed_since_build_exits_two(tmp_path, out, caplog):
    copy_demo(tmp_path)
    run_pipeline(tmp_path / "config.json", out, commands=("build",))
    doctors = tmp_path / "doctors.csv"
    text = doctors.read_text()
    # every id survives cleaning; only P2's hospital changes
    doctors.write_text(text.replace("P2,Bikram Rao,H2,", "P2,Bikram Rao,H3,", 1))
    assert doctors.read_text() != text
    with caplog.at_level("ERROR", logger="trustprop"):
        assert main(["eval", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert [record.message for record in caplog.records] == [digest_message(tmp_path, out)]
    assert not (out / "metrics.csv").exists()
    # a fresh build makes eval usable again
    run_pipeline(tmp_path / "config.json", out, commands=("build", "eval"))


def use_jaccard(directory, out):
    config = json.loads((directory / "config.json").read_text())
    (directory / "config.json").write_text(json.dumps({**config, "similarity_mode": "jaccard"}))
    return (f"{out / 'network.json'} was built with similarity_mode 'intersection_count' "
            "(now 'jaccard'); run the build command again")


#: the commands that score network.json, each of which refuses a stale bundle
SCORING_COMMANDS = ("trust", "score", "eval", "stress")


@pytest.mark.parametrize("edit", [use_jaccard, drop_last_doctor], ids=["jaccard", "doctor-row"])
def test_similarity_mode_changed_since_build_exits_two(tmp_path, out, caplog, edit):
    copy_demo(tmp_path)
    config = str(tmp_path / "config.json")
    run_pipeline(config, out, commands=("build",))
    message = edit(tmp_path, out)
    for command in SCORING_COMMANDS:
        caplog.clear()
        with caplog.at_level("ERROR", logger="trustprop"):
            assert main([command, "--config", config, "--out", str(out)]) == 2, command
        assert [record.message for record in caplog.records] == [message], command
    # no command wrote any of its artifacts
    assert [path.name for path in out.iterdir()] == ["network.json"]
    # staleness is information for report, not a refusal
    assert main(["report", "--config", config, "--out", str(out)]) == 0
    # a fresh build makes every command usable again
    run_pipeline(config, out, commands=("build", *SCORING_COMMANDS))


def test_eval_parses_no_table_after_build(out, monkeypatch):
    run_pipeline(DEMO / "config.json", out, commands=("build",))
    refuse_to_parse(monkeypatch)
    run_pipeline(DEMO / "config.json", out, commands=SCORING_COMMANDS)
    assert (out / "metrics.csv").exists()


def write_generated_tables(directory, seed=3, doctors=40):
    """Seeded tables where about a third of the doctors have no like percentage
    and some hospitals no rating, beside a copy of the demo config."""
    rng = random.Random(seed)
    hospitals = [f"H{i}" for i in range(6)]
    departments = [f"D{i}" for i in range(8)]
    members = {f"P{i:02d}": rng.sample(departments, rng.randint(1, 2)) for i in range(doctors)}
    tables = {
        "doctors": [("id", "name", "hospital_ids", "department_ids", "qualification_score",
                     "overall_experience_years", "specialist_experience_years", "like_pct",
                     "vote_count", "review_count", "verified", "claimed")] + [
            (p, p, ";".join(rng.sample(hospitals, rng.randint(1, 3))), ";".join(ds),
             rng.randint(1, 10), 12, 6, "" if rng.random() < 0.35 else rng.randint(40, 100),
             rng.randint(0, 200), rng.randint(0, 3), "true", "true")
            for p, ds in members.items()],
        "hospitals": [("id", "name", "rating", "stories_count", "accreditation",
                       "location_category", "department_ids")] + [
            (h, h, rng.choice(["", "3.5", "4.0", "4.5"]), rng.randint(0, 9), "", "urban",
             ";".join(rng.sample(departments, 3)))
            for h in hospitals],
        "departments": [("id", "name", "doctor_ids", "hospital_ids")] + [
            (d, d, ";".join(p for p, ds in members.items() if d in ds),
             ";".join(rng.sample(hospitals, 2)))
            for d in departments],
    }
    for name, rows in tables.items():
        with open(directory / f"{name}.csv", "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
    shutil.copy(DEMO / "config.json", directory / "config.json")


def in_process_metrics(config_path, path):
    """metrics.csv as eval wrote it when it read ground truth and baselines from the
    cleaned tables: each scenario's social scores, then each baseline column."""
    config = load_config(str(config_path), None, None)
    store = clean(parse_store(*config.inputs))
    network = build_network(store, config.similarity_mode)
    trusts = derive_network_trust(network)
    truths, baselines = ground_truth_ratings(store), baseline_columns(store)
    reports = []
    for scenario, residual_configs in config.scenarios.items():
        scored = _score(config, network, trusts, residual_configs)
        for layer in LAYERS:
            scores = dict(zip(scored[layer].result.scores.entity_ids,
                              scored[layer].result.scores.values.tolist()))
            reports += layer_reports(layer.value, "social_score", scenario, scores,
                                     truths[layer.value], config.ks[layer])
    for layer in LAYERS:
        for name, column in baselines[layer.value].items():
            reports += layer_reports(layer.value, name, "", column, truths[layer.value],
                                     config.ks[layer])
    bundle.write_metrics_csv(reports, path)
    return store


@pytest.mark.parametrize("tables", ["demo", "generated"])
def test_eval_metrics_match_the_reports_of_the_cleaned_tables(tmp_path, out, tables):
    if tables == "demo":
        config_path = DEMO / "config.json"
    else:
        write_generated_tables(tmp_path)
        config_path = tmp_path / "config.json"
    run_pipeline(config_path, out, commands=("build", "eval"))
    store = in_process_metrics(config_path, tmp_path / "expected.csv")
    if tables == "generated":
        assert any(doc.like_pct is None for doc in store.doctors.values())
        assert len(store.hospitals) > 2
    assert (out / "metrics.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_eval_on_a_bundle_without_columns_exits_two(out, caplog, demo_network):
    run_pipeline(DEMO / "config.json", out, commands=("build",))
    bundle.save_network(demo_network, out / "network.json")
    with caplog.at_level("ERROR", logger="trustprop"):
        assert main(["eval", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2
    assert any("holds no ratings or baselines" in record.message
               and "run the build command again" in record.message for record in caplog.records)


#: edits of the demo tables whose weights sum past the float range, and the
#: first block row or column that sum names
OVERFLOWS = {
    # P3 weighs 1e308 in D1 and in D2
    "doctor-to-department": ({"departments.csv": [("P1:10;P2:6;P3:8,", "P1:10;P2:6;P3:1e308,"),
                                                  ("P3:4;P4:6,", "P3:1e308;P4:6,")]},
                             "column P3"),
    # D2 weighs P3 and P4 1e308 each
    "department-to-doctor": ({"departments.csv": [("P1:10;P2:6;P3:8,", "P1:10;P2:6;P3:1e308,"),
                                                  ("P3:4;P4:6,", "P3:1e308;P4:1e308,")]},
                             "row D2"),
    # D1 weighs P1 and P2 by their qualification scores, 1e308 each
    "qualification-scores": ({"departments.csv": [("P1:10;P2:6;P3:8,", "P1;P2;P3:8,")],
                              "doctors.csv": [("D1,10,", "D1,1e308,"),
                                              ("D1;D3,8,", "D1;D3,1e308,")]},
                             "row D1"),
}


def write_overflowing_demo(directory, case):
    """The demo tables and config with the edits of ``OVERFLOWS[case]``."""
    edits = OVERFLOWS[case][0]
    for name in ("doctors.csv", "hospitals.csv", "departments.csv", "config.json"):
        text = (DEMO / name).read_text()
        for old, new in edits.get(name, []):
            assert old in text, (name, old)
            text = text.replace(old, new, 1)
        (directory / name).write_text(text)


def overflow_message(case):
    return f"departmentxdoctor block: the weights in {OVERFLOWS[case][1]} sum past the float range"


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_build_exits_two_when_a_membership_weight_sum_overflows(tmp_path, out, caplog, case):
    write_overflowing_demo(tmp_path, case)
    with warnings.catch_warnings(), caplog.at_level("ERROR", logger="trustprop"):
        warnings.simplefilter("error")
        assert main(["build", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert not (out / "network.json").exists()
    assert [record.message for record in caplog.records] == [
        f"the input tables build an invalid network: {overflow_message(case)}"]


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_trust_row_sum_past_the_float_range_exits_two(tmp_path, out, caplog, case):
    write_overflowing_demo(tmp_path, case)
    # build refuses these weights, so the bundle is written through the library
    store = clean(parse_store(*(tmp_path / name
                                for name in ("doctors.csv", "hospitals.csv", "departments.csv"))))
    network = build_network(store)
    out.mkdir()
    bundle.save_network(replace(network, columns=trustprop.cli.eval_columns(store, network)),
                        out / "network.json")
    commands = ("trust", "score", "eval", "stress", "report")
    with warnings.catch_warnings(), caplog.at_level("ERROR", logger="trustprop"):
        warnings.simplefilter("error")
        for command in commands:
            assert main([command, "--config", str(tmp_path / "config.json"),
                         "--out", str(out)]) == 2, command
    assert [record.message for record in caplog.records] == len(commands) * [
        f"{out / 'network.json'}: invalid network bundle: {overflow_message(case)}"]
    assert [path.name for path in out.iterdir()] == ["network.json"]


def test_trust_json_holds_the_derived_trust(out):
    run_pipeline(DEMO / "config.json", out, commands=("build", "trust"))
    trusts = derive_network_trust(load_network(out / "network.json")).by_tag()
    stored = json.loads((out / "trust.json").read_text())
    assert stored["schema_version"] == 1
    assert stored["matrices"].keys() == trusts.keys()
    for tag, matrix in trusts.items():
        entry = stored["matrices"][tag]
        assert (entry["rows"], entry["cols"]) == (matrix.rows.value, matrix.cols.value), tag
        assert (entry["row_ids"], entry["col_ids"]) == (list(matrix.row_ids),
                                                        list(matrix.col_ids)), tag
        # exact floats, not equality after a cast
        assert entry["values"] == matrix.values.tolist(), tag


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(schema_version=2),
    lambda c: c.update(stray_key=1),
    lambda c: c.update(damping=0.0),
    lambda c: c.update(department_feed="clinic"),
    lambda c: c["convergence"].update(epsilon=-1),
    lambda c: c["residual"]["hospital"].update(distribution="nosuch"),
    lambda c: c["evaluation"].update(scenarios=["lognormal"]),
    lambda c: c["stress"].update(method="shuffle"),
    lambda c: c.update(seed=True),
    lambda c: c.update(damping=True),
    lambda c: c["evaluation"]["ks"].update(hospital=[True]),
    lambda c: c["stress"].update(seeds=[True]),
    lambda c: c["convergence"].update(max_iterations=2.5),
    lambda c: c["convergence"].update(max_iterations=True),
    lambda c: c["convergence"].update(epsilon=True),
    lambda c: c["residual"]["hospital"].update(seed=True),
    lambda c: c["residual"].update(hospital={"distribution": "uniform", "value": 0.9}),
    lambda c: c["stress"].update(concentration=True),
    lambda c: c["evaluation"].update(scenarios=5),
    lambda c: c["evaluation"].update(scenarios=[["uniform"]]),
    lambda c: c["evaluation"].update(ks=3),
    lambda c: c["residual"].update(hospital=[1]),
    lambda c: c.update(convergence=[1]),
    lambda c: c.update(stress=[1]),
    lambda c: c["inputs"].update(doctors=5),
    lambda c: c.update(out_dir=5),
    lambda c: c["evaluation"].update(scenarios=["uniform", "uniform"]),
    lambda c: c["evaluation"]["ks"].update(hospital=[2, 2]),
    lambda c: c["stress"].update(seeds=[11, 11]),
    lambda c: c["stress"].update(seeds=[]),
    lambda c: c["evaluation"].update(scenarios=[]),
])
def test_invalid_config_exits_three(tmp_path, out, mutate):
    config = json.loads((DEMO / "config.json").read_text())
    for key, value in config["inputs"].items():
        config["inputs"][key] = str(DEMO / value)
    mutate(config)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["build", "--config", str(config_path), "--out", str(out)]) == 3


def test_unparseable_config_exits_three(tmp_path, out):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    assert main(["build", "--config", str(config_path), "--out", str(out)]) == 3
    assert main(["build", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 3


def test_config_that_is_not_utf8_exits_three(tmp_path, out):
    config_path = tmp_path / "config.json"
    config_path.write_bytes((DEMO / "config.json").read_bytes().replace(b'"out"', b'"\xe9"'))
    assert main(["build", "--config", str(config_path), "--out", str(out)]) == 3


def _set_weights(text, *weights):
    payload = json.loads(text)
    payload["inter"]["department:doctor"]["weight"][:len(weights)] = weights
    return json.dumps(payload)


def test_corrupt_bundle_schema_exits_two(out):
    run_pipeline(DEMO / "config.json", out, commands=("build",))
    bundle_path = out / "network.json"
    text = bundle_path.read_text()
    for corrupt in (json.dumps({**json.loads(text), "schema_version": 99}), text[:len(text) // 2],
                    _set_weights(text, float("nan")), _set_weights(text, -5.0, 5.0)):
        bundle_path.write_text(corrupt)
        for command in ("trust", "score"):
            assert main([command, "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2


def _set_bool(payload, key):
    """A JSON ``true`` for the first department x doctor weight, or for a row index 1."""
    cells = payload["inter"]["department:doctor"]
    cells[key][cells[key].index(1) if key == "row" else 0] = True


@pytest.mark.parametrize("key, message", [("row", "a cell index is not an integer"),
                                          ("weight", "a cell value is not a number")])
def test_bundle_with_a_bool_cell_exits_two(out, caplog, key, message):
    run_pipeline(DEMO / "config.json", out, commands=("build",))
    path = out / "network.json"
    payload = json.loads(path.read_text())
    _set_bool(payload, key)
    path.write_text(json.dumps(payload))
    with caplog.at_level("ERROR", logger="trustprop"):
        assert main(["score", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2
    assert any(f"departmentxdoctor block: {message}" in record.message
               for record in caplog.records)


def test_the_six_commands_read_no_dense_block(out, monkeypatch):
    """Build, load, validation, trust, scoring, stress and report work on each block's
    cells: they run with a block's dense weights refused."""
    def refuse(block):
        raise AssertionError(f"{block.tag} block: its dense weights were read")

    monkeypatch.setattr(AdjacencyBlock, "weights", property(refuse))
    run_pipeline(DEMO / "config.json", out)
    assert main(["report", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 0


def test_the_six_commands_read_no_dense_trust(out, monkeypatch):
    """trust.json is written row by row from each trust matrix's cells, and propagation,
    the initial scores and stress rescoring multiply over the cells: the six commands run
    with a trust matrix's dense values refused, on the demo, whose trust matrices are all
    at least an eighth full."""
    def refuse(matrix):
        raise AssertionError(f"{matrix.tag} trust: its dense values were read")

    monkeypatch.setattr(TrustMatrix, "values", property(refuse))
    run_pipeline(DEMO / "config.json", out)
    assert main(["report", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 0
    assert (out / "trust.json").exists()


def _set_final(text, value):
    lines = text.splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[3] = value
    lines[2] = ",".join(cells)
    return "".join(lines)


@pytest.mark.parametrize("corrupt", [
    lambda t: _set_final(t, "abc"),
    lambda t: t.replace(",final,", ",fnal,", 1),
    lambda t: t + "H4,0.2,0.2,0.99,1,true\n",  # a second H4 row
    lambda t: t.replace("\nH2,", ",extra\nH2,", 1),  # a seventh field on the H1 row
])
def test_corrupt_scores_file_exits_two(out, corrupt):
    run_pipeline(DEMO / "config.json", out, commands=("build", "score"))
    path = out / "scores_hospital.csv"
    path.write_text(corrupt(path.read_text()))
    assert main(["report", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2


def test_scores_file_that_is_not_utf8_exits_two(out):
    run_pipeline(DEMO / "config.json", out, commands=("build", "score"))
    with open(out / "scores_hospital.csv", "ab") as handle:
        handle.write(b"Caf\xe9,0.2,0.2,0.2,1,true\n")
    assert main(["report", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2


def _set_hospital_ids(payload, *ids):
    payload["layers"]["hospital"]["node_ids"][:len(ids)] = ids


@pytest.mark.parametrize("command, mutate, message", [
    ("eval", lambda p: p.update(provenance=[1, 2]), "provenance must be a dict"),
    ("eval", lambda p: p.update(provenance=[]), "provenance must be a dict"),
    ("score", lambda p: _set_hospital_ids(p, 1), "hospital layer: node ids must be strings"),
    ("score", lambda p: _set_hospital_ids(p, None, 1, 2.5, True),
     "hospital layer: node ids must be strings"),
], ids=["provenance-list", "provenance-empty-list", "int-id", "mixed-ids"])
def test_bundle_with_mistyped_fields_exits_two(out, caplog, command, mutate, message):
    run_pipeline(DEMO / "config.json", out, commands=("build",))
    path = out / "network.json"
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with caplog.at_level("ERROR", logger="trustprop"):
        assert main([command, "--config", str(DEMO / "config.json"), "--out", str(out)]) == 2
    assert any(message in record.message for record in caplog.records)


#: schema and header of each CSV artifact the six commands write
CSV_ARTIFACTS = {
    "trust_values.csv": ("trust-values/1", ["layer", "value"]),
    "edges.csv": ("trust-edges/1", ["layer", "src", "dst", "trust"]),
    "metrics.csv": ("metrics/1", ["layer", "baseline", "scenario", "k", "sample_size", "precision",
                                  "recall", "f1", "spearman", "kendall", "rmse", "mae"]),
    "stress_pairs.csv": ("stress-pairs/1", ["seed", "layer", "src", "dst", "true_trust",
                                            "synthetic_trust"]),
    **{f"scores_{layer}.csv": ("layer-scores/1", ["entity_id", "residual", "initial", "final",
                                                  "iterations", "converged"])
       for layer in ("hospital", "department", "doctor")},
    **{f"convergence_{layer}.csv": ("convergence-trace/1", ["iteration", "delta"])
       for layer in ("hospital", "department", "doctor")},
}


def test_csv_artifacts_share_one_format(out):
    run_pipeline(DEMO / "config.json", out)
    assert main(["report", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(CSV_ARTIFACTS)
    for name, (schema, header) in CSV_ARTIFACTS.items():
        data = (out / name).read_bytes()
        assert data.startswith(f"# schema: {schema}\n".encode()), name
        assert b"\r" not in data, name
        rows = list(bundle.read_csv(out / name, schema, header))
        assert [line for line, _ in rows] == list(range(3, data.count(b"\n") + 1)), name
        assert all(len(fields) == len(header) for _, fields in rows), name


def test_empty_store_builds_empty_bundle(tmp_path, out, caplog):
    headers = {
        "doctors": ("id,name,hospital_ids,department_ids,qualification_score,"
                    "overall_experience_years,specialist_experience_years,like_pct,"
                    "vote_count,review_count,verified,claimed"),
        "hospitals": "id,name,rating,stories_count,accreditation,location_category,department_ids",
        "departments": "id,name,doctor_ids,hospital_ids",
    }
    for name, header in headers.items():
        (tmp_path / f"{name}.csv").write_text(header + "\n")
    config = json.loads((DEMO / "config.json").read_text())
    config["inputs"] = {k: f"{k}.csv" for k in config["inputs"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    with caplog.at_level("WARNING", logger="trustprop"):
        assert main(["build", "--config", str(config_path), "--out", str(out)]) == 0
    assert any("empty" in record.message for record in caplog.records)
    network = json.loads((out / "network.json").read_text())
    assert all(layer["node_ids"] == [] for layer in network["layers"].values())
    # every later command on an empty network is a no-op, not an error
    run_pipeline(config_path, out, commands=("trust", "score", "eval", "stress", "report"))


def test_oversized_k_skipped_with_warning(tmp_path, out, caplog):
    config = json.loads((DEMO / "config.json").read_text())
    for key, value in config["inputs"].items():
        config["inputs"][key] = str(DEMO / value)
    config["evaluation"]["ks"] = {"hospital": [3, 99], "department": [3], "doctor": [3]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run_pipeline(config_path, out, commands=("build",))
    with caplog.at_level("WARNING", logger="trustprop"):
        assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 0
    assert any("k=99" in record.message for record in caplog.records)
    rows = read_csv(out / "metrics.csv")
    assert not any(row["k"] == "99" for row in rows)


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "trustprop.cli", "build",
         "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "out" / "network.json").exists()
