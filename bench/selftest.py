"""Self-test of the benchmark: determinism, the checks, and the metric names.

    python3 bench/selftest.py

Run it from the root of a checkout. It takes about a minute and exits 0 when

1. one seed gives byte-identical corpora and another seed different ones;
2. the output checks pass on tiny library and CLI runs, and fail once one
   trust row is zeroed or one score is moved by 1e-6;
3. tiny runs of every workload, untraced and traced, print exactly the
   metrics that ``BENCHMARK.json`` declares, and the detail line carries
   every other metric the workload reaches.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import corpus
import run as bench
from workloads import WORKLOADS

TINY = "0.1"
LAYERS = ("hospital", "department", "doctor")


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for name in ("doctors.csv", "hospitals.csv", "departments.csv"):
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def check_determinism(work: Path) -> list[str]:
    for shape in ("paper", "dense"):
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            corpus.generate(shape, 300, seed, work / f"{shape}-{name}")
    problems = []
    for shape in ("paper", "dense"):
        a, b, c = (_digest(work / f"{shape}-{name}") for name in "abc")
        if a != b:
            problems.append(f"{shape}: the same seed gave different bytes")
        if a == c:
            problems.append(f"{shape}: different seeds gave the same bytes")
    return problems


def _failures(run: bench.Run, workload) -> int:
    result = run.worker("check", workload)
    if result is None:
        raise RuntimeError(f"check worker failed: {run.failures[-1]}")
    return result["failed"]


def _npz_edit(path: Path, edit) -> None:
    with np.load(path) as arrays:
        arrays = dict(arrays)
    edit(arrays)
    np.savez(path, **arrays)


def _zero_trust_row(arrays: dict) -> None:
    rows = arrays["trust.p.rows"]
    keep = rows != rows[0]
    for part in ("rows", "cols", "values"):
        arrays[f"trust.p.{part}"] = arrays[f"trust.p.{part}"][keep]


def _nudge_score(arrays: dict) -> None:
    arrays["scores.doctor"] = arrays["scores.doctor"].copy()
    arrays["scores.doctor"][0] += 1e-6


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = list(csv.reader(lines[2:]))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines[:2])
        csv.writer(handle, lineterminator="\n").writerows(rows)


def check_corruption(work: Path) -> list[str]:
    problems = []
    # library outputs: stress-dense covers trust, scores and identity stress
    dense = WORKLOADS["stress-dense"]
    run = bench.Run(work / "dense", time.perf_counter())
    run.work.mkdir()
    bench.SetUp(run, dense, 3, float(TINY))
    if bench.worker_pass(run, dense, 0) is None:
        return [f"tiny stress-dense pass failed: {run.failures}"]
    outputs = run.work / "outputs.npz"
    pristine = outputs.read_bytes()
    if _failures(run, dense):
        problems.append("checks fail on an unmodified library run")
    for label, edit in (("zeroed trust row", _zero_trust_row), ("score + 1e-6", _nudge_score)):
        outputs.write_bytes(pristine)
        _npz_edit(outputs, edit)
        if not _failures(run, dense):
            problems.append(f"library checks missed a {label}")

    # CLI artifacts
    paper = WORKLOADS["cli-paper"]
    run = bench.Run(work / "cli", time.perf_counter())
    run.work.mkdir()
    bench.SetUp(run, paper, 3, float(TINY))
    bench.cli_pass(run, paper, 0)
    if run.failures:
        return problems + [f"tiny cli-paper pass failed: {run.failures}"]
    checked = run.work / "checked"
    if _failures(_restore(run, checked), paper):
        problems.append("checks fail on unmodified CLI artifacts")

    def drop_one_source(rows):
        source = next(row[1] for row in rows if row[0] == "p")
        return [row for row in rows if not (row[0] == "p" and row[1] == source)]

    def nudge_final(rows):
        rows[0][3] = repr(float(rows[0][3]) + 1e-6)
        return rows

    for label, name, edit in (("zeroed trust row", "edges.csv", drop_one_source),
                              ("score + 1e-6", "scores_doctor.csv", nudge_final)):
        _rewrite_csv(checked / name, edit)
        if not _failures(_restore(run, checked), paper):
            problems.append(f"CLI checks missed a {label} in {name}")
        shutil.rmtree(checked)
        bench.cli_pass(run, paper, 0)
    return problems


def _restore(run: bench.Run, checked: Path) -> bench.Run:
    """Give the check worker a copy of the artifacts at the place it reads."""
    shutil.rmtree(run.work / "out", ignore_errors=True)
    shutil.copytree(checked, run.work / "out")
    return run


def _detail_names(workload) -> tuple[set[str], set[str]]:
    """Metric names the detail line must carry, untraced and traced."""
    untraced = {"setup_s", "setup_raw_s", "wall_ref_s", "wall_s", "host.kernel_s", "cpu_s",
                "peak_rss_mb",
                *(f"{stage}_s" for stage in workload.stages)}
    traced = {"ingest.raw_doctors", "ingest.kept_doctors", "ingest.keep_ratio",
              "trust.positive_values",
              *(f"builder.block.{tag}.{name}" for tag in ("h", "d", "p", "hd", "dp")
                for name in ("nnz", "density")),
              *(f"scoring.propagate.{layer}.converged" for layer in LAYERS)}
    if "eval" in workload.stages:
        traced |= {"ingest.ground_truth_ratings.s", "ingest.baseline_columns.s",
                   "metrics.build_report.s", "metrics.build_report.calls",
                   "metrics.build_report.max_n", "stress.export_edge_table.s", "stress.edges",
                   "stress.rebuild_trust.s", "stress.rescore.s", "stress.stress_compare.s",
                   "stress.dropped_diagonal",
                   *(f"stress.generate_synthetic.{method}.s" for method, _ in workload.stress)}
    if workload.kind == "cli":
        untraced |= {"artifact_mb", *(f"cli.{c}.{n}" for c in workload.stages
                                      for n in ("peak_rss_mb", "cpu_s"))}
        traced |= {"cli.import.s", "stress.write_edge_table.s", "bundle.save_network.s",
                   "bundle.load_network.s", "bundle.load_network.calls", "bundle.save_trust.s",
                   "bundle.write_csv.s", "bundle.network_json_mb", "bundle.trust_json_mb",
                   *(f"cli.{c}.{n}" for c in workload.stages for n in ("peak_rss_mb", "cpu_s"))}
    return untraced, traced


def check_names() -> list[str]:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    if wanted[0] != bench.END_TO_END or wanted[1] != bench.PER_LAYER:
        problems.append("BENCHMARK.json and run.py declare different metrics")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json and workloads.py name different workloads")
    for name, workload in WORKLOADS.items():
        detail_names = _detail_names(workload)
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(bench.BENCH / "run.py"), "--workload", name, "--seed", "4",
                 "--seconds", "1", "--trace", str(trace), "--scale", TINY],
                cwd=bench.ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{name} trace {trace}: exit {proc.returncode} "
                                f"{proc.stderr[-300:]}")
                continue
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            keys = {"correct", "attempted", "failed", "metrics"}
            if set(result) != keys or not result["correct"]:
                problems.append(f"{name} trace {trace}: bad result {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(units)}")
            missing = detail_names[trace] - set(detail["metrics"])
            if missing or "fail_ratio" not in detail:
                problems.append(f"{name} trace {trace}: detail lacks {sorted(missing)}")
    return problems


def main() -> int:
    signal.signal(signal.SIGALRM, bench.on_alarm)
    work = bench.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = check_determinism(work) + check_corruption(work) + check_names()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
