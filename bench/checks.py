"""Output checks of the benchmark.

The blocks, trust and scores of every run are compared with an oracle that
this file computes from the corpus CSVs alone: memberships become incidence
matrices, intra-layer blocks are their products with the diagonal zeroed,
trust is row normalisation and scores are the plain power iteration. The
oracle shares no code with the package, so it holds for every seed. On top of
that, three small fixed corpora are run through the package and compared
with the values recorded in ``bench/reference/`` when the benchmark was
written; ``PYTHONPATH=src python3 bench/checks.py --record SCRATCH_DIR`` rewrites
them, which is only right when the program's results are meant to change.

Each check counts once towards ``attempted``; a check that does not hold
counts towards ``failed`` and its reason is listed.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import EPSILON, MAX_ITERATIONS, RESIDUAL, Workload

RTOL, ATOL = 1e-9, 1e-10
#: values read back from 12-significant-digit text
TEXT_RTOL, TEXT_ATOL = 1e-11, 1e-12
ROW_SUM_TOL = 1e-9
LAYER_NAMES = ("hospital", "department", "doctor")
BLOCKS = ("h", "d", "p", "hd", "dp")
TRUST_TAGS = ("h", "d", "p", "hd", "dh", "dp", "pd")
#: layer -> (feeding layer, trust tag from the feeding layer to it)
FEEDS = {"hospital": ("department", "dh"), "department": ("hospital", "hd"),
         "doctor": ("department", "dp")}
INTRA_TAG = {"hospital": "h", "department": "d", "doctor": "p"}
REFERENCE_DIR = Path(__file__).parent / "reference"
REFERENCE_CASES = {
    "paper-intersection": ("paper", 240, 20261017, "intersection_count"),
    "paper-jaccard": ("paper", 240, 20261017, "jaccard"),
    "dense-intersection": ("dense", 150, 20261017, "intersection_count"),
}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def close(self, actual, expected, what: str, rtol: float = RTOL, atol: float = ATOL) -> bool:
        actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
        if actual.shape != expected.shape:
            return self.expect(False, f"{what}: shape {actual.shape} != {expected.shape}")
        worst = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
        return self.expect(bool(np.allclose(actual, expected, rtol=rtol, atol=atol)),
                           f"{what}: differs from the expected values by up to {worst:.3g}")

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures}


# --- the oracle ------------------------------------------------------------

def _members(cell: str) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for part in cell.split(";"):
        if not part.strip():
            continue
        ident, _, weight = part.partition(":")
        out[ident.strip()] = float(weight) if weight else None
    return out


def _rows(path: Path) -> dict[str, dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return {row["id"]: row for row in csv.DictReader(handle)}


def _similarity(incidence: np.ndarray, mode: str) -> np.ndarray:
    shared = incidence @ incidence.T
    np.fill_diagonal(shared, 0.0)
    if mode == "intersection_count":
        return shared
    degree = incidence.sum(axis=1)
    union = degree[:, None] + degree[None, :] - shared
    out = np.zeros_like(shared)
    np.divide(shared, union, out=out, where=union > 0)
    np.fill_diagonal(out, 0.0)
    return out


def normalize_rows(weights: np.ndarray) -> np.ndarray:
    sums = weights.sum(axis=1, keepdims=True)
    out = np.zeros_like(weights)
    np.divide(weights, sums, out=out, where=sums > 0)
    return out


def oracle(corpus_dir: Path, mode: str) -> dict:
    """Kept ids, blocks, trust and constant-residual scores of a generated corpus.

    The generator guarantees that no drop cascades into the kept doctors, so
    cleaning reduces to: keep the doctors and rated hospitals it names, and
    the departments that keep at least one member.
    """
    expected = json.loads((corpus_dir / "expected.json").read_text(encoding="utf-8"))
    doctors = _rows(corpus_dir / "doctors.csv")
    hospitals = _rows(corpus_dir / "hospitals.csv")
    departments = _rows(corpus_dir / "departments.csv")
    kept_p = sorted(expected["kept_doctors"])
    kept_h = sorted(expected["rated_hospitals"])
    p_set, h_set = set(kept_p), set(kept_h)

    listed = {d: _members(row["doctor_ids"]) for d, row in departments.items()}
    members = {d: set(m) & p_set for d, m in listed.items()}
    for p in kept_p:
        for d in _members(doctors[p]["department_ids"]):
            members[d].add(p)
    kept_d = sorted(d for d in departments if members[d])
    d_set = set(kept_d)

    hi = {h: i for i, h in enumerate(kept_h)}
    di = {d: i for i, d in enumerate(kept_d)}
    pi = {p: i for i, p in enumerate(kept_p)}
    h_depts = np.zeros((len(kept_h), len(kept_d)))
    for h in kept_h:
        for d in _members(hospitals[h]["department_ids"]):
            if d in d_set:
                h_depts[hi[h], di[d]] = 1.0
    d_doctors = np.zeros((len(kept_d), len(kept_p)))
    for d in kept_d:
        for p in members[d]:
            d_doctors[di[d], pi[p]] = 1.0
    p_hospitals = np.zeros((len(kept_p), len(kept_h)))
    for p in kept_p:
        for h in _members(doctors[p]["hospital_ids"]):
            if h in h_set:
                p_hospitals[pi[p], hi[h]] = 1.0

    co_affiliated = p_hospitals.T @ d_doctors.T
    hd = np.zeros((len(kept_h), len(kept_d)))
    dp = np.zeros((len(kept_d), len(kept_p)))
    for d in kept_d:
        declared = _members(departments[d]["hospital_ids"])
        for h in kept_h:
            i, j = hi[h], di[d]
            if h in declared and declared[h] is not None:
                hd[i, j] = declared[h]
            elif h in declared or h_depts[i, j]:
                hd[i, j] = co_affiliated[i, j] if co_affiliated[i, j] > 0 else 1.0
        for p in members[d]:
            weight = listed[d].get(p)
            dp[di[d], pi[p]] = weight if weight is not None else float(
                doctors[p]["qualification_score"])

    blocks = {"h": _similarity(h_depts, mode), "d": _similarity(d_doctors, mode),
              "p": _similarity(p_hospitals, mode), "hd": hd, "dp": dp}
    trust = {tag: normalize_rows(blocks[tag]) for tag in BLOCKS}
    trust["dh"] = normalize_rows(hd.T)
    trust["pd"] = normalize_rows(dp.T)

    sizes = {"hospital": len(kept_h), "department": len(kept_d), "doctor": len(kept_p)}
    scores, iterations = {}, {}
    for layer, (feed, tag) in FEEDS.items():
        current = RESIDUAL + np.full(sizes[feed], RESIDUAL) @ trust[tag]
        matrix = trust[INTRA_TAG[layer]]
        count = 0
        for count in range(1, MAX_ITERATIONS + 1):
            nxt = current @ matrix
            delta = float(np.abs(nxt - current).max()) if nxt.size else 0.0
            current = nxt
            if delta <= EPSILON:
                break
        scores[layer] = np.maximum(current, 0.0)
        iterations[layer] = count if sizes[layer] else 0
    return {"ids": {"hospital": kept_h, "department": kept_d, "doctor": kept_p},
            "blocks": blocks, "trust": trust, "scores": scores, "iterations": iterations}


# --- checks shared by every workload ---------------------------------------

def check_trust_rows(checks: Checks, label: str, matrix: np.ndarray) -> None:
    sums = matrix.sum(axis=1)
    bad = np.flatnonzero((sums != 0.0) & (np.abs(sums - 1.0) > ROW_SUM_TOL))
    checks.expect(bad.size == 0 and bool((matrix >= 0).all()),
                  f"trust {label}: {bad.size} row(s) neither sum to 1 nor are all zero")


def _array(values) -> np.ndarray:
    """A block or trust matrix as a dense array, whatever its storage."""
    return np.asarray(values.toarray() if hasattr(values, "toarray") else values, dtype=float)


def network_blocks(network) -> dict[str, np.ndarray]:
    from trustprop import LayerId

    h, d, p = LayerId.HOSPITAL, LayerId.DEPARTMENT, LayerId.DOCTOR
    return {"h": _array(network.intra[h].weights), "d": _array(network.intra[d].weights),
            "p": _array(network.intra[p].weights), "hd": _array(network.inter[(h, d)].weights),
            "dp": _array(network.inter[(d, p)].weights)}


def check_scores(checks: Checks, layer: str, values: np.ndarray, expected: np.ndarray) -> None:
    checks.expect(bool(np.all(np.isfinite(values)) and np.all(values >= 0)),
                  f"scores {layer}: not all finite and >= 0")
    checks.close(values, expected, f"scores {layer}")


def check_reports(checks: Checks, reports: list[dict], what: str) -> None:
    numbers = [v for r in reports for k, v in r.items()
               if k in ("precision", "recall", "f1", "spearman", "kendall", "rmse", "mae")
               and v is not None]
    checks.expect(bool(reports) and all(math.isfinite(v) for v in numbers),
                  f"{what}: missing reports or non-finite metric values")


def _dense(arrays, prefix: str) -> np.ndarray:
    out = np.zeros(tuple(arrays[f"{prefix}.shape"]))
    out[arrays[f"{prefix}.rows"], arrays[f"{prefix}.cols"]] = arrays[f"{prefix}.values"]
    return out


def check_library(checks: Checks, workload: Workload, work: Path, want: dict) -> None:
    meta = json.loads((work / "outputs.json").read_text(encoding="utf-8"))
    with np.load(work / "outputs.npz") as arrays:
        arrays = dict(arrays)
    checks.expect(meta["ids"] == want["ids"], "cleaned ids differ from the corpus's kept entities")
    checks.expect(not meta["violations"], f"network violations: {meta['violations'][:3]}")
    for tag in BLOCKS:
        checks.close(_dense(arrays, f"block.{tag}"), want["blocks"][tag], f"block {tag}")
    for tag in TRUST_TAGS:
        trust = _dense(arrays, f"trust.{tag}")
        check_trust_rows(checks, tag, trust)
        checks.close(trust, want["trust"][tag], f"trust {tag}")
    for layer in LAYER_NAMES:
        check_scores(checks, layer, arrays[f"scores.{layer}"], want["scores"][layer])
        checks.expect(meta["iterations"][layer] == want["iterations"][layer],
                      f"scores {layer}: {meta['iterations'][layer]} iterations, "
                      f"oracle {want['iterations'][layer]}")
    if "eval" in workload.stages:
        check_reports(checks, meta["reports"], "eval")
    for index, run in enumerate(meta["stress"]):
        label = f"stress {run['method']} seed {run['seed']}"
        checks.expect(run["dropped_diagonal"] == 0, f"{label}: dropped diagonal records")
        check_reports(checks, run["reports"], label)
        if run["method"] == "identity":
            for layer in LAYER_NAMES:
                synthetic = arrays[f"stress.{index}.{layer}"]
                true = arrays[f"scores.{layer}"]
                checks.expect(synthetic.shape == true.shape
                              and bool(np.all(np.abs(synthetic - true) <= 1e-9)),
                              f"{label}: {layer} scores not reproduced within 1e-9")


# --- cli artifacts -------------------------------------------------------------

JSON_ARTIFACTS = ("network.json", "metrics.json", "stress.json", "report.json")
CSV_ARTIFACTS = ("trust_values.csv", "edges.csv", "metrics.csv", "stress_pairs.csv",
                 *(f"scores_{layer}.csv" for layer in LAYER_NAMES),
                 *(f"convergence_{layer}.csv" for layer in LAYER_NAMES))


def _csv_body(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        handle.readline()
        return list(csv.DictReader(handle))


def _schema_line(path: Path) -> bool:
    with open(path, encoding="utf-8") as handle:
        return handle.readline().startswith("# schema:")


def check_cli(checks: Checks, out: Path, want: dict) -> None:
    """Artifacts of the six commands, read through the package's loader or as text."""
    from trustprop import bundle

    for name in CSV_ARTIFACTS:
        path = out / name
        checks.expect(path.exists() and _schema_line(path), f"{name}: missing or no schema line")
    documents = {}
    for name in JSON_ARTIFACTS:
        path = out / name
        if checks.expect(path.exists(), f"{name}: missing"):
            if name == "network.json":
                continue
            documents[name] = json.loads(path.read_text(encoding="utf-8"))
            checks.expect("schema_version" in documents[name], f"{name}: no schema_version")

    network = bundle.load_network(out / "network.json")
    ids = {layer.value: list(network.node_ids(layer)) for layer in network.graphs}
    if not checks.expect(ids == want["ids"], "network ids differ from the corpus's kept entities"):
        return
    for tag, weights in network_blocks(network).items():
        checks.close(weights, want["blocks"][tag], f"block {tag}")

    index = {layer: {ident: i for i, ident in enumerate(values)} for layer, values in ids.items()}
    tag_layers = {"h": ("hospital", "hospital"), "d": ("department", "department"),
                  "p": ("doctor", "doctor"), "hd": ("hospital", "department"),
                  "dh": ("department", "hospital"), "dp": ("department", "doctor"),
                  "pd": ("doctor", "department")}
    trust = {tag: np.zeros((len(ids[r]), len(ids[c]))) for tag, (r, c) in tag_layers.items()}
    for row in _csv_body(out / "edges.csv"):
        rows, cols = tag_layers[row["layer"]]
        trust[row["layer"]][index[rows][row["src"]], index[cols][row["dst"]]] = float(row["trust"])
    for tag, matrix in trust.items():
        check_trust_rows(checks, f"edges.csv {tag}", matrix)
        checks.close(matrix, want["trust"][tag], f"edges.csv trust {tag}", TEXT_RTOL, TEXT_ATOL)
    if (out / "trust.json").exists():
        document = json.loads((out / "trust.json").read_text(encoding="utf-8"))
        checks.expect("schema_version" in document, "trust.json: no schema_version")
        for tag, payload in document.get("matrices", {}).items():
            check_trust_rows(checks, f"trust.json {tag}",
                             np.asarray(payload["values"], dtype=float))

    for layer in LAYER_NAMES:
        rows = _csv_body(out / f"scores_{layer}.csv")
        order = [index[layer][row["entity_id"]] for row in rows]
        values = np.zeros(len(rows))
        values[order] = [float(row["final"]) for row in rows]
        checks.expect(bool(np.all(np.isfinite(values)) and np.all(values >= 0)),
                      f"scores_{layer}.csv: not all finite and >= 0")
        checks.close(values, want["scores"][layer], f"scores_{layer}.csv", TEXT_RTOL, TEXT_ATOL)
        iterations = {int(row["iterations"]) for row in rows}
        checks.expect(iterations <= {want["iterations"][layer]},
                      f"scores_{layer}.csv: iterations {sorted(iterations)}, "
                      f"oracle {want['iterations'][layer]}")

    if "metrics.json" in documents:
        check_reports(checks, documents["metrics.json"].get("reports", []), "metrics.json")
    if "stress.json" in documents:
        for run in documents["stress.json"].get("runs", []):
            label = f"stress.json seed {run['seed']}"
            checks.expect(run["dropped_diagonal"] == 0, f"{label}: dropped diagonal records")
            check_reports(checks, run["reports"], label)
    if "report.json" in documents:
        layers = documents["report.json"].get("layers", {})
        checks.expect(layers == {layer: len(ids[layer]) for layer in LAYER_NAMES},
                      "report.json: layer sizes differ from the network")


# --- recorded reference ----------------------------------------------------------

def _program_outputs(corpus_dir: Path, mode: str) -> dict[str, np.ndarray]:
    """Blocks, trust and constant-residual scores as the package computes them."""
    from trustprop import (ResidualConfig, SimilarityMode, build_network, clean,
                           derive_network_trust, generate_residual, parse_store, score_network)
    from trustprop.model import LAYERS

    store = clean(parse_store(corpus_dir / "doctors.csv", corpus_dir / "hospitals.csv",
                              corpus_dir / "departments.csv"))
    network = build_network(store, SimilarityMode(mode))
    trusts = derive_network_trust(network)
    residuals = {layer: generate_residual(ResidualConfig.constant(RESIDUAL),
                                          len(network.node_ids(layer)), layer,
                                          network.node_ids(layer)) for layer in LAYERS}
    scored = score_network(trusts, residuals)
    out = {f"block.{tag}": weights for tag, weights in network_blocks(network).items()}
    out.update({f"trust.{tag}": _array(m.values) for tag, m in trusts.by_tag().items()})
    out.update({f"scores.{layer.value}": _array(s.result.scores.values)
                for layer, s in scored.items()})
    return out


def _reference_corpus(name: str, work: Path) -> tuple[Path, str]:
    import corpus

    shape, doctors, seed, mode = REFERENCE_CASES[name]
    target = work / f"reference-{name}"
    expected = corpus.generate(shape, doctors, seed, target)
    (target / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return target, mode


def _from_record(entry) -> np.ndarray:
    if isinstance(entry, list):
        return np.asarray(entry, dtype=float)
    out = np.zeros(tuple(entry["shape"]))
    out[entry["rows"], entry["cols"]] = entry["values"]
    return out


def _to_record(values: np.ndarray):
    if values.ndim == 1:
        return values.tolist()
    rows, cols = np.nonzero(values)
    return {"shape": list(values.shape), "rows": rows.tolist(), "cols": cols.tolist(),
            "values": values[rows, cols].tolist()}


def check_reference(checks: Checks, work: Path) -> None:
    for name in REFERENCE_CASES:
        target, mode = _reference_corpus(name, work)
        recorded = json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
        actual = _program_outputs(target, mode)
        for key in sorted(recorded):
            checks.close(actual.get(key, np.zeros(0)), _from_record(recorded[key]),
                         f"reference {name} {key}")


def record_reference(work: Path) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in REFERENCE_CASES:
        target, mode = _reference_corpus(name, work)
        outputs = {key: _to_record(values)
                   for key, values in _program_outputs(target, mode).items()}
        (REFERENCE_DIR / f"{name}.json").write_text(
            json.dumps(outputs, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def run_checks(workload: Workload, work: Path) -> dict:
    checks = Checks()
    want = oracle(work / "corpus", workload.similarity_mode)
    if workload.kind == "cli":
        check_cli(checks, work / "out", want)
    else:
        check_library(checks, workload, work, want)
    check_reference(checks, work)
    return dict(checks.result(), cleaned={layer: len(ids) for layer, ids in want["ids"].items()})


def main() -> None:
    parser = argparse.ArgumentParser(description="record the reference outputs")
    parser.add_argument("--record", metavar="SCRATCH_DIR", required=True,
                        help="directory for the reference corpora")
    args = parser.parse_args()
    record_reference(Path(args.record))


if __name__ == "__main__":
    main()
