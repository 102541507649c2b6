"""Worker process of the benchmark: one setup, pass or check each.

Every invocation is a fresh interpreter, so its peak RSS belongs to one piece
of work. ``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src`` and reads the one JSON object it prints on stdout.

    python3 bench/worker.py setup       --workload W --seed S --dir D --scale X [--discard]
    python3 bench/worker.py pass        --workload W --dir D [--dump] [--traced]
    python3 bench/worker.py trace-setup --workload W --dir D
    python3 bench/worker.py check       --workload W --dir D

``pass`` calls the package's wrappers (``build_network``, ``score_network``,
``run_stress``) as a library user would, and times each stage from outside.
On ``cli-paper`` it runs the six commands through ``trustprop.cli.main`` in
this one process. A traced pass runs the same code after ``Tracer.install``
has put a span around every public function those wrappers call; the
difference to an untraced pass is the tracing overhead.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import pickle
import resource
import shutil
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

from trustprop import (
    GeneratorConfig,
    GeneratorMethod,
    LayerId,
    ResidualConfig,
    SimilarityMode,
    baseline_columns,
    build_network,
    build_report,
    clean,
    derive_network_trust,
    generate_residual,
    ground_truth_ratings,
    parse_store,
    run_stress,
    score_network,
    validate_network,
)
from trustprop import cli
from trustprop.cli import SCENARIO_FAMILIES
from trustprop.model import LAYERS
from trustprop.scoring import ConvergenceConfig

import corpus
import hostspeed
from checks import network_blocks, run_checks
from workloads import (CONFIG_SEED, EPSILON, KS, MAX_ITERATIONS, RESIDUAL, SCENARIOS,
                       WORKLOADS, Workload)

CONVERGENCE = ConvergenceConfig(epsilon=EPSILON, max_iterations=MAX_ITERATIONS)
KS_BY_LAYER = {layer: [KS] for layer in LAYERS}


# --- tracing ------------------------------------------------------------------

def _clean_counts(tracer, cleaned, store, *_):
    tracer.put("ingest.raw_doctors", len(store.doctors))
    tracer.put("ingest.kept_doctors", len(cleaned.doctors))
    tracer.put("ingest.keep_ratio", len(cleaned.doctors) / max(len(store.doctors), 1))


def _block_counts(tracer, network, *_):
    for tag, block in network_blocks(network).items():
        nnz = int(np.count_nonzero(block))
        tracer.put(f"builder.block.{tag}.nnz", nnz)
        tracer.put(f"builder.block.{tag}.density", nnz / block.size if block.size else 0.0)


def _positive_values(tracer, trusts, *_):
    tracer.put("trust.positive_values",
               sum(int(np.count_nonzero(np.asarray(m.values) > 0)) for m in trusts.all_matrices()))


def _iterations(tracer, result, s0, *_):
    tracer.add(f"scoring.propagate.{s0.layer.value}.iterations", result.iterations)
    tracer.put(f"scoring.propagate.{s0.layer.value}.converged", int(result.converged))


def _report_size(tracer, report, layer, baseline, scenario, scores, truth, *_):
    tracer.most("metrics.build_report.max_n", len(set(scores) & set(truth)))


def _rescore_or_score(tracer, *_):
    inside_stress = tracer.stack and tracer.stack[-1] == "stress.run_stress"
    return "stress.rescore" if inside_stress else "scoring.score_network"


#: (module, function, span name or a function of the call giving it, a hook
#: that records values from the call's result and positional arguments)
TRACED = (
    ("ingest", "parse_store", "ingest.parse_store", None),
    ("ingest", "clean", "ingest.clean", _clean_counts),
    ("ingest", "ground_truth_ratings", "ingest.ground_truth_ratings", None),
    ("ingest", "baseline_columns", "ingest.baseline_columns", None),
    ("builder", "build_network", "builder.build_network", _block_counts),
    ("builder", "build_intra_layer",
     lambda t, store, layer, *_: f"builder.build_intra_layer.{layer.value}", None),
    ("builder", "build_inter_layer",
     lambda t, store, rows, cols, *_: f"builder.build_inter_layer.{rows.tag}{cols.tag}", None),
    ("model", "validate_network", "model.validate_network", None),
    ("trust", "derive_network_trust", "trust.derive_network_trust", _positive_values),
    ("scoring", "generate_residual", "scoring.generate_residual", None),
    ("scoring", "initial_score", "scoring.initial_score", None),
    ("scoring", "propagate", lambda t, s0, *_: f"scoring.propagate.{s0.layer.value}", _iterations),
    ("scoring", "score_network", _rescore_or_score, None),
    ("metrics", "build_report", "metrics.build_report", _report_size),
    ("stress", "export_edge_table", "stress.export_edge_table",
     lambda t, table, *_: t.put("stress.edges", len(table))),
    ("stress", "write_edge_table", "stress.write_edge_table", None),
    ("stress", "generate_synthetic",
     lambda t, table, config, *_: f"stress.generate_synthetic.{config.method.value}", None),
    ("stress", "rebuild_trust", "stress.rebuild_trust",
     lambda t, result, *_: t.add("stress.dropped_diagonal", result[1].dropped_diagonal)),
    ("stress", "trust_network_from_tags", "stress.trust_network_from_tags", None),
    ("stress", "stress_compare", "stress.stress_compare", None),
    ("stress", "run_stress", "stress.run_stress", None),
    ("bundle", "save_network", "bundle.save_network", None),
    ("bundle", "load_network", "bundle.load_network", None),
    ("bundle", "save_trust", "bundle.save_trust", None),
    *(("bundle", name, "bundle.write_csv", None)
      for name in ("write_trust_values_csv", "write_scores_csv", "write_convergence_csv",
                   "write_metrics_csv", "write_stress_pairs_csv")),
    *(("bundle", name, "bundle.write_json", None)
      for name in ("write_metrics_json", "write_stress_json")),
    ("bundle", "read_scores_csv", "bundle.read_csv", None),
)


class Tracer:
    """Spans and values of one pass, kept in memory.

    ``install`` replaces each function in ``TRACED`` by a span-recording
    wrapper wherever a module of the package, or this worker, holds it. The
    package's own wrappers and commands then record every call they make, on
    the path the program really takes. Before ``install`` nothing is recorded.
    """

    def __init__(self):
        self.enabled = False
        #: names of the open spans, outermost first
        self.stack: list[str] = []
        #: (name, seconds, depth); depth 0 is a call made straight from the benchmark
        self.spans: list[tuple[str, float, int]] = []
        self.values: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self.stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, time.perf_counter() - start, len(self.stack) - 1))
            self.stack.pop()

    def _wrap(self, function, label, hook):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(self, *args)
            with self.span(name):
                result = function(*args, **kwargs)
            if hook is not None:
                hook(self, result, *args)
            return result
        return traced

    def install(self) -> None:
        self.enabled = True
        holders = [module for key, module in list(sys.modules.items())
                   if key == "trustprop" or key.startswith("trustprop.")]
        holders.append(sys.modules[__name__])
        for module_name, function_name, label, hook in TRACED:
            original = getattr(importlib.import_module(f"trustprop.{module_name}"), function_name)
            wrapper = self._wrap(original, label, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def put(self, name: str, value: float) -> None:
        self.values[name] = value

    def most(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, value), value)

    def metrics(self, wall: float) -> dict[str, float]:
        """Seconds and calls per span name, the recorded values, and the part
        of ``wall`` no depth-0 span covers."""
        out: dict[str, float] = {}
        for name, seconds, _ in self.spans:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + seconds
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out.update(self.values)
        out["trace.untraced_s"] = wall - sum(s for _, s, depth in self.spans if depth == 0)
        return out


class Stages:
    """Wall and CPU time of each pipeline stage, taken from outside the
    package; the host's speed is probed between stages (see ``hostspeed``)."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.cpu_s = 0.0
        self.probe = hostspeed.Probe()

    @contextmanager
    def time(self, stage: str):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu_start
            self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed
            self.probe.add(elapsed)


def _input_paths(corpus_dir: Path) -> list[Path]:
    return [corpus_dir / "doctors.csv", corpus_dir / "hospitals.csv",
            corpus_dir / "departments.csv"]


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence((CONFIG_SEED, *key)).generate_state(1)[0])


# --- the library pipeline ------------------------------------------------------

def ingest(corpus_dir: Path):
    return clean(parse_store(*_input_paths(corpus_dir)))


def build(corpus_dir: Path, workload: Workload):
    network = build_network(ingest(corpus_dir), SimilarityMode(workload.similarity_mode))
    return network, validate_network(network)


def residuals(network, scenario: int | None = None):
    out = {}
    for index, layer in enumerate(LAYERS):
        ids = network.node_ids(layer)
        if scenario is None:
            config = ResidualConfig.constant(RESIDUAL)
        else:
            config = SCENARIO_FAMILIES[SCENARIOS[scenario]](_derived_seed(index, scenario))
        out[layer] = generate_residual(config, len(ids), layer, ids)
    return out


def score(trusts, layer_residuals):
    return score_network(trusts, layer_residuals, CONVERGENCE, 1.0, LayerId.HOSPITAL)


def _report(layer: LayerId, baseline: str, scenario: str, scores, truth):
    shared = len(set(scores) & set(truth))
    return build_report(layer.value, baseline, scenario, scores, truth,
                        k=KS if KS <= shared else None)


def evaluate(corpus_dir: Path, network, trusts) -> list:
    """The eval flow: three scenarios and the raw-column baselines."""
    store = ingest(corpus_dir)
    truths = ground_truth_ratings(store)
    reports = []
    for scenario_index, scenario in enumerate(SCENARIOS):
        scored = score(trusts, residuals(network, scenario_index))
        for layer in LAYERS:
            vector = scored[layer].result.scores
            scores = dict(zip(vector.entity_ids, vector.values.tolist()))
            reports.append(_report(layer, "social_score", scenario, scores, truths[layer.value]))
    baselines = baseline_columns(store)
    for layer in LAYERS:
        for name, column in baselines[layer.value].items():
            reports.append(_report(layer, name, "", column, truths[layer.value]))
    return reports


def stress(trusts, true_scores, method: str, seeds) -> list:
    generator = GeneratorConfig(method=GeneratorMethod(method), concentration=1000.0,
                                seed=seeds[0])
    return run_stress(trusts, true_scores, generator, list(seeds), CONVERGENCE, 1.0,
                      LayerId.HOSPITAL, ks=KS_BY_LAYER)


def library_pass(workload: Workload, work: Path, stages: Stages, network=None) -> dict:
    """One pass of a library workload; returns what the output checks need.
    ``network`` is the one set-up built, where the workload builds in set-up."""
    corpus_dir = work / "corpus"
    runs, reports, violations = [], [], []
    if network is None:
        with stages.time("build"):
            network, violations = build(corpus_dir, workload)
    with stages.time("trust"):
        trusts = derive_network_trust(network)
    with stages.time("score"):
        scored = score(trusts, residuals(network))
    if "eval" in workload.stages:
        with stages.time("eval"):
            reports = evaluate(corpus_dir, network, trusts)
        for method, seeds in workload.stress:
            with stages.time("stress"):
                runs += [(method, run) for run in stress(trusts, scored, method, seeds)]
    return {"network": network, "violations": violations, "trusts": trusts,
            "scored": scored, "reports": reports, "runs": runs}


def cli_pass(tracer: Tracer, workload: Workload, work: Path, stages: Stages) -> None:
    """The six commands through ``trustprop.cli.main``, one after another in
    this process, into ``replay-out``."""
    out = work / "replay-out"
    shutil.rmtree(out, ignore_errors=True)
    config = work / "corpus" / "config.json"
    with redirect_stdout(sys.stderr):
        for command in workload.stages:
            with stages.time(command), tracer.span(f"cli.{command}"):
                code = cli.main([command, "--config", str(config), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"trustprop {command} exited {code}")
    if tracer.enabled:
        tracer.put("bundle.network_json_mb", (out / "network.json").stat().st_size / 1e6)
        tracer.put("bundle.trust_json_mb", (out / "trust.json").stat().st_size / 1e6)


# --- check dump ----------------------------------------------------------------

def _triplets(prefix: str, matrix, arrays: dict) -> None:
    dense = np.asarray(matrix)
    rows, cols = np.nonzero(dense)
    arrays[f"{prefix}.rows"] = rows
    arrays[f"{prefix}.cols"] = cols
    arrays[f"{prefix}.values"] = dense[rows, cols]
    arrays[f"{prefix}.shape"] = np.array(dense.shape)


def dump_outputs(result: dict, path: Path) -> None:
    """Blocks and trust as nonzero triplets, scores and stress results, for the checks."""
    arrays: dict[str, np.ndarray] = {}
    network, trusts = result["network"], result["trusts"]
    for tag, block in network_blocks(network).items():
        _triplets(f"block.{tag}", block, arrays)
    for tag, matrix in trusts.by_tag().items():
        _triplets(f"trust.{tag}", matrix.values, arrays)
    meta = {"ids": {layer.value: list(network.node_ids(layer)) for layer in LAYERS},
            "violations": result["violations"], "iterations": {}, "stress": [],
            "reports": [r.as_dict() for r in result["reports"]]}
    for layer, layer_scores in result["scored"].items():
        arrays[f"scores.{layer.value}"] = np.asarray(layer_scores.result.scores.values)
        meta["iterations"][layer.value] = layer_scores.result.iterations
    for index, (method, run) in enumerate(result["runs"]):
        for layer, layer_scores in run.scores.items():
            arrays[f"stress.{index}.{layer.value}"] = np.asarray(layer_scores.result.scores.values)
        meta["stress"].append({"method": method, "seed": run.seed,
                               "dropped_diagonal": run.rebuild.dropped_diagonal,
                               "reports": [r.as_dict() for r in run.reports]})
    np.savez(path.with_suffix(".npz"), **arrays)
    path.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


# --- entry points ----------------------------------------------------------------

def do_setup(args, workload: Workload) -> dict:
    """Generate the corpus, and build the network where the passes start from
    it, ``workload.setup_repeats`` times; ``setup_s`` is the mean time of one
    set-up. Keeps the set-up in the work directory unless ``--discard``."""
    work = Path(args.dir)
    target = work / ("setup-discard" if args.discard else "corpus")
    doctors = max(60, round(workload.doctors * args.scale))
    before = hostspeed.kernel_s()
    start = time.perf_counter()
    for _ in range(workload.setup_repeats):
        expected = corpus.generate(workload.shape, doctors, args.seed, target)
        network = build(target, workload)[0] if workload.builds_in_setup else None
    elapsed = (time.perf_counter() - start) / workload.setup_repeats
    after = hostspeed.kernel_s()
    digest = hashlib.sha256()
    for path in _input_paths(target):
        digest.update(path.read_bytes())
    if args.discard:
        shutil.rmtree(target)
    else:
        (target / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
        if network is not None:
            with open(work / "network.pickle", "wb") as handle:
                pickle.dump(network, handle, protocol=pickle.HIGHEST_PROTOCOL)
        if workload.kind == "cli":
            (method, seeds), = workload.stress
            corpus.write_config(target, method, list(seeds), workload.similarity_mode)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"setup_s": elapsed, "setup_ref_s": elapsed * hostspeed.factor(before, after),
            "corpus_sha256": digest.hexdigest(), "raw": expected["raw"],
            "environment": {"python": sys.version.split()[0], "numpy": np.__version__,
                            "blas": f"{blas.get('name')} {blas.get('version')}"}}


def do_pass(args, workload: Workload) -> dict:
    """One pass in this fresh process, traced or not. A network built in
    set-up is unpickled before the clock starts: the program never pays that."""
    work = Path(args.dir)
    tracer, stages = Tracer(), Stages()
    if args.traced:
        tracer.install()
    network = None
    if workload.builds_in_setup:
        with open(work / "network.pickle", "rb") as handle:
            network = pickle.load(handle)
    if workload.kind == "cli":
        cli_pass(tracer, workload, work, stages)
        result = None
    else:
        result = library_pass(workload, work, stages, network)
    wall = sum(stages.seconds.values())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"wall_s": wall, "wall_ref_s": stages.probe.ref_s, "kernel_s": stages.probe.kernels,
           "cpu_s": stages.cpu_s, "stages": stages.seconds,
           "peak_rss_mb": peak_kb / 1024.0}
    if args.traced:
        out["metrics"] = tracer.metrics(wall)
    if result is not None:
        out["scores"] = {layer.value: s.result.scores.values.tolist()
                         for layer, s in result["scored"].items()}
        if args.dump:
            dump_outputs(result, work / "outputs")
    return out


def do_trace_setup(args, workload: Workload) -> dict:
    """The traced build of a workload whose build happens in set-up."""
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    build(Path(args.dir) / "corpus", workload)
    return {"metrics": tracer.metrics(time.perf_counter() - start)}


def main() -> int:
    parser = argparse.ArgumentParser(description="one unit of benchmark work")
    parser.add_argument("mode", choices=["setup", "pass", "trace-setup", "check"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--discard", action="store_true")
    parser.add_argument("--dump", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "check":
        result = run_checks(workload, Path(args.dir))
    else:
        result = {"setup": do_setup, "pass": do_pass,
                  "trace-setup": do_trace_setup}[args.mode](args, workload)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
