"""Pipeline benchmark of trustprop: one workload per invocation.

    python3 bench/run.py --workload cli-paper --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
It generates the seeded corpus, then runs passes of the workload one after
another, a closed loop with a single client, until the passes and the
set-ups between them have taken ``--seconds``. After each pass it sets up
once more, so that ``setup_s`` is a median over the run and the corpus bytes
of every set-up can be compared.
The benchmark process itself stays idle while a pass runs, and every pass,
check and CLI command runs in a fresh child process whose BLAS pool is fixed
at ``BLAS_THREADS`` threads, so no more than ``nproc`` threads compute.

``--trace 0`` reports the end-to-end metrics: medians over the passes of this
run. The gated times, ``setup_s`` and ``wall_ref_s``, are in reference seconds
(see ``hostspeed.py``); the detail line also carries them unscaled, as
``setup_raw_s`` and ``wall_s``.

``--trace 1`` alternates untraced and traced passes, each in one worker
process (on ``cli-paper`` the six commands run there through
``trustprop.cli.main``), and reports the per-layer metrics. Every result is
checked against an oracle (see ``checks.py``), and every later pass, traced or
not, must give the scores of the checked one; ``attempted`` counts commands,
passes and checks, ``failed`` the ones that exited non-zero or did not hold.

Before the last line, stdout carries one JSON line ``{"detail": ...}`` with the
environment, the corpus counts after cleaning, per-stage times and all other
metrics by name with their unit, median, range and sample count. The last line
is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
PYTHON = sys.executable
NPROC = os.cpu_count() or 1
BLAS_THREADS = min(2, NPROC)
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
MAX_PASSES = 40
#: a run must end within 180 s; this leaves room to clean up and report
RUN_DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ingest.parse_store.s": "s", "ingest.clean.s": "s",
    **{f"builder.build_intra_layer.{layer}.s": "s"
       for layer in ("hospital", "department", "doctor")},
    "builder.build_inter_layer.hd.s": "s", "builder.build_inter_layer.dp.s": "s",
    "model.validate_network.s": "s", "trust.derive_network_trust.s": "s",
    "scoring.generate_residual.s": "s", "scoring.initial_score.s": "s",
    **{f"scoring.propagate.{layer}.{name}": unit
       for layer in ("hospital", "department", "doctor")
       for name, unit in (("s", "s"), ("iterations", "count"), ("ms_per_iter", "ms"))},
    "trace.untraced_s": "s", "trace.overhead_s": "s",
}


def on_alarm(signum, frame):
    """SIGALRM interrupts the wait for a child that outlives the run's deadline."""
    raise TimeoutError


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed check)."""


class Run:
    """Child processes, their rusage, and the run's tally of attempts and failures."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
                        PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self._logs = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def child(self, argv: list[str]) -> dict:
        """Run one child to completion; wall time, exit code and rusage from wait4."""
        self._logs += 1
        out_path = self.work / f"child-{self._logs}.out"
        err_path = self.work / f"child-{self._logs}.err"
        remaining = int(self.deadline - time.perf_counter())
        if remaining <= 0:
            raise BenchError("run deadline reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            signal.alarm(remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise BenchError(f"{' '.join(argv[1:3])} exceeded the run deadline") from None
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(encoding="utf-8"),
                "stderr_tail": err_path.read_text(encoding="utf-8", errors="replace")[-400:]}

    def worker(self, mode: str, workload: Workload, *extra: str) -> dict | None:
        """A worker's JSON result, or None (counted as a failure) if it did not exit 0."""
        result = self.child([PYTHON, str(BENCH / "worker.py"), mode, "--workload",
                             workload.name, "--dir", str(self.work), *extra])
        if not self.expect(result["code"] == 0,
                           f"worker {mode} exited {result['code']}: {result['stderr_tail']}"):
            return None
        return json.loads(result["stdout"].strip().splitlines()[-1])


def _summary(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "min": min(values), "max": max(values), "samples": values}


class SetUp:
    """Set-up samples of one run. The first set-up is kept for the passes;
    later ones run between passes and are discarded, so that the median spans
    the whole run. Every sample must write the same bytes."""

    def __init__(self, run: Run, workload: Workload, seed: int, scale: float):
        self.run, self.workload = run, workload
        self.argv = ["--seed", str(seed), "--scale", str(scale)]
        self.samples: list[float] = []
        #: the same in reference seconds
        self.scaled: list[float] = []
        self.digests: set[str] = set()
        first = self._sample()
        self.raw, self.environment = first["raw"], first["environment"]

    def _sample(self, *extra: str) -> dict:
        result = self.run.worker("setup", self.workload, *self.argv, *extra)
        if result is None:
            raise BenchError("setup failed")
        self.samples.append(result["setup_s"])
        self.scaled.append(result["setup_ref_s"])
        self.digests.add(result["corpus_sha256"])
        return result

    def again(self) -> None:
        self._sample("--discard")

    def check(self) -> None:
        self.run.expect(len(self.digests) == 1,
                        f"one seed gave {len(self.digests)} different corpora")


def _scores_csv(path: Path) -> list[float]:
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        header = handle.readline().strip().split(",")
        column = header.index("final")
        return [float(line.split(",")[column]) for line in handle if line.strip()]


def _same(a: list[float], b: list[float]) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= 1e-9 * max(1.0, abs(y)) for x, y in zip(a, b))


def cli_pass(run: Run, workload: Workload, index: int) -> dict:
    """The six commands, each in its own interpreter, into a fresh output directory."""
    out = run.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    config = run.work / "corpus" / "config.json"
    stages, commands = {}, {}
    probe = hostspeed.Probe()
    for command in workload.stages:
        result = run.child([PYTHON, "-m", "trustprop.cli", command, "--config", str(config),
                            "--out", str(out)])
        probe.add(result["wall_s"])
        run.expect(result["code"] == 0,
                   f"pass {index}: {command} exited {result['code']}: {result['stderr_tail']}")
        stages[command] = result["wall_s"]
        commands[command] = {"peak_rss_mb": result["peak_rss_mb"], "cpu_s": result["cpu_s"]}
    artifact_bytes = sum(p.stat().st_size for p in out.iterdir()) if out.exists() else 0
    scores = {}
    for layer in ("hospital", "department", "doctor"):
        path = out / f"scores_{layer}.csv"
        scores[layer] = _scores_csv(path) if path.exists() else []
    if index == 0:
        shutil.rmtree(run.work / "checked", ignore_errors=True)
        out.rename(run.work / "checked")
    return {"wall_s": sum(stages.values()), "wall_ref_s": probe.ref_s,
            "kernel_s": probe.kernels, "stages": stages, "commands": commands,
            "cpu_s": sum(c["cpu_s"] for c in commands.values()),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in commands.values()),
            "artifact_mb": artifact_bytes / 1e6, "scores": scores}


def worker_pass(run: Run, workload: Workload, index: int, traced: bool = False) -> dict | None:
    """One pass in a fresh worker. On ``cli-paper`` the worker runs the six
    commands in-process; their scores are read back from its output here."""
    extra = (["--dump"] if index == 0 and not traced else []) + (["--traced"] if traced else [])
    result = run.worker("pass", workload, *extra)
    if result is not None and workload.kind == "cli":
        result["scores"] = {layer: _scores_csv(run.work / "replay-out" / f"scores_{layer}.csv")
                            for layer in ("hospital", "department", "doctor")}
    return result


def timed_passes(seconds: float, one_pass, at_least: int = MIN_PASSES, between=None) -> list:
    """Passes one after another, each followed by ``between``, until the next
    pass and ``between`` would take the loop past ``seconds``."""
    passes, durations = [], []
    while len(passes) < MAX_PASSES:
        began = time.perf_counter()
        result = one_pass(len(passes))
        if result is not None:
            passes.append(result)
        elif not passes and len(durations) + 1 >= at_least:
            break
        if between is not None:
            between()
        durations.append(time.perf_counter() - began)
        if len(durations) >= at_least and sum(durations) + statistics.median(durations) > seconds:
            break
    return passes


def check_consistency(run: Run, passes: list[dict]) -> None:
    """Later passes must compute the scores the first, fully checked, pass computed."""
    first = passes[0]
    for index, later in enumerate(passes[1:], start=1):
        same = all(_same(later["scores"][k], first["scores"][k]) for k in first["scores"])
        run.expect(same, f"pass {index}: scores differ from the checked pass")


def run_checks(run: Run, workload: Workload) -> dict:
    """Check the first pass's outputs; returns the entity counts after cleaning."""
    if workload.kind == "cli":
        shutil.rmtree(run.work / "out", ignore_errors=True)
        (run.work / "checked").rename(run.work / "out")
    result = run.worker("check", workload)
    if result is None:
        return {}
    run.attempted += result["attempted"]
    run.failures.extend(result["failures"])
    return result["cleaned"]


def end_to_end(run: Run, workload: Workload, seconds: float, prepared: SetUp):
    run_pass = cli_pass if workload.kind == "cli" else worker_pass
    passes = timed_passes(seconds, lambda i: run_pass(run, workload, i), between=prepared.again)
    if not passes:
        raise BenchError("no pass completed")
    check_consistency(run, passes)
    cleaned = run_checks(run, workload)
    metrics = {
        "setup_s": _summary(prepared.scaled, "s"),
        "wall_ref_s": _summary([p["wall_ref_s"] for p in passes], "s"),
        "peak_rss_mb": _summary([p["peak_rss_mb"] for p in passes], "MB"),
    }
    detail = {f"{stage}_s": _summary([p["stages"][stage] for p in passes], "s")
              for stage in workload.stages}
    detail["setup_raw_s"] = _summary(prepared.samples, "s")
    detail["wall_s"] = _summary([p["wall_s"] for p in passes], "s")
    detail["host.kernel_s"] = _summary([k for p in passes for k in p["kernel_s"]], "s")
    detail["cpu_s"] = _summary([p["cpu_s"] for p in passes], "s")
    if workload.kind == "cli":
        detail["artifact_mb"] = _summary([p["artifact_mb"] for p in passes], "MB")
        for command in workload.stages:
            for name, unit in (("peak_rss_mb", "MB"), ("cpu_s", "s")):
                detail[f"cli.{command}.{name}"] = _summary(
                    [p["commands"][command][name] for p in passes], unit)
    return metrics, detail, cleaned


def _unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("density") or name.endswith("ratio"):
        return "ratio"
    return "count"


def _merge(into: dict, extra: dict) -> dict:
    """Sum the seconds and calls of two traced phases; other values of ``into`` win."""
    out = dict(into)
    for name, value in extra.items():
        summed = name.endswith(".s") or name.endswith(".calls")
        out[name] = out.get(name, 0) + value if summed else out.get(name, value)
    return out


def traced(run: Run, workload: Workload, seconds: float):
    """Alternate untraced and traced in-process passes; per-layer medians.

    Where the network is built in set-up, a traced build of the same corpus is
    added, so the builder's metrics exist on every workload.
    """
    setup_metrics = {}
    if workload.builds_in_setup:
        result = run.worker("trace-setup", workload)
        setup_metrics = result["metrics"] if result else {}
        setup_metrics.pop("trace.untraced_s", None)
    detail: dict = {}
    if workload.kind == "cli":
        checked = cli_pass(run, workload, 0)
        cleaned = run_checks(run, workload)
        for command in workload.stages:
            for name, unit in (("peak_rss_mb", "MB"), ("cpu_s", "s")):
                detail[f"cli.{command}.{name}"] = {"value": checked["commands"][command][name],
                                                   "unit": unit}
        imports = [run.child([PYTHON, "-c", "import time; t = time.perf_counter(); "
                              "import trustprop.cli; print(time.perf_counter() - t)"])
                   for _ in range(3)]
        imported = [float(r["stdout"]) for r in imports
                    if run.expect(r["code"] == 0, f"import trustprop.cli: {r['stderr_tail']}")]
        if imported:
            detail["cli.import.s"] = _summary(imported, "s")
    pairs = timed_passes(seconds, lambda i: (worker_pass(run, workload, i),
                                                 worker_pass(run, workload, i, traced=True)),
                         at_least=MIN_TRACED_PAIRS)
    pairs = [(plain, spans) for plain, spans in pairs if plain and spans]
    if not pairs:
        raise BenchError("no traced pass completed")
    # every pass, traced or not, must give the scores of the checked one
    passes = [result for pair in pairs for result in pair]
    if workload.kind == "cli":
        check_consistency(run, [checked, *passes])
    else:
        check_consistency(run, passes)
        cleaned = run_checks(run, workload)
    samples: dict[str, list[float]] = {}
    for plain, spans in pairs:
        values = _merge(spans["metrics"], setup_metrics)
        values["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
        for layer in ("hospital", "department", "doctor"):
            iterations = values.get(f"scoring.propagate.{layer}.iterations", 0)
            seconds_in = values.get(f"scoring.propagate.{layer}.s", 0.0)
            values[f"scoring.propagate.{layer}.ms_per_iter"] = (
                1000.0 * seconds_in / iterations if iterations else 0.0)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    for name, values in sorted(samples.items()):
        detail[name] = _summary(values, _unit(name))
    missing = [name for name in PER_LAYER if name not in detail]
    if missing:
        raise BenchError(f"traced passes did not report {', '.join(missing)}")
    detail["trace.passes"] = {"value": len(pairs), "unit": "count"}
    metrics = {name: detail[name] for name in PER_LAYER}
    return metrics, detail, cleaned


def main() -> int:
    parser = argparse.ArgumentParser(description="trustprop pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on the corpus size (the self-test uses a small one)")
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "trustprop" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/trustprop; run from the root of a trustprop checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, on_alarm)
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, started)
    try:
        prepared = SetUp(run, workload, args.seed, args.scale)
        if args.trace:
            metrics, detail, cleaned = traced(run, workload, args.seconds)
        else:
            metrics, detail, cleaned = end_to_end(run, workload, args.seconds, prepared)
        prepared.check()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in run.failures[:10]:
            print(f"  {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    environment = dict(prepared.environment, nproc=NPROC, blas_threads=BLAS_THREADS,
                       python_hash_seed=run.env["PYTHONHASHSEED"], machine=platform.machine(),
                       system=platform.system())
    detail.update({name: value for name, value in metrics.items()})
    print(json.dumps({"detail": {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "raw": prepared.raw, "cleaned": cleaned,
        "environment": environment,
        "fail_ratio": {"value": len(run.failures) / max(run.attempted, 1), "unit": "ratio"},
        "failures": run.failures[:20], "metrics": detail}}, sort_keys=True))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
