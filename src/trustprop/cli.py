"""Command-line pipeline: build, trust, score, eval, stress, report.

One JSON config file drives every command; --out and --seed override the
config's output directory and master seed. Exit codes: 0 success, 2 unusable
input, 3 invalid configuration. Non-convergence of the score iteration is not
an error; it is recorded in the emitted files.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import bundle
from .builder import SimilarityMode, build_network
from .errors import ConfigError, InputError, InvalidConfigError, TrustPropError
from .ingest import baseline_columns, clean, ground_truth_ratings, parse_store
from .metrics import MetricsReport, build_report
from .model import LAYERS, LayerId, MultiLayerNetwork, validate_network
from .scoring import (
    ConvergenceConfig,
    DeltaNorm,
    ResidualConfig,
    ResidualKind,
    generate_residual,
    is_int,
    is_real,
    score_network,
)
from .stress import GeneratorConfig, GeneratorMethod, export_edge_table, run_stress, write_edge_table
from .trust import derive_network_trust

log = logging.getLogger("trustprop")

CONFIG_SCHEMA = 1

#: residual families used for the three evaluation scenarios
SCENARIO_FAMILIES = {
    "uniform": lambda seed: ResidualConfig.uniform(0.0, 1.0, seed=seed),
    "normal": lambda seed: ResidualConfig.normal(0.5, 0.15, seed=seed),
    "skewed": lambda seed: ResidualConfig.skewed(2.0, 8.0, seed=seed),
}

_LAYER_INDEX = {layer: i for i, layer in enumerate(LAYERS)}


def _expect_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(sorted(unknown))}")


def _derived_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence((master, *key)).generate_state(1)[0])


class RunConfig:
    """Validated view of the JSON config file."""

    def __init__(self, raw: dict, config_dir: Path, out_override: str | None,
                 seed_override: int | None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _expect_keys(raw, {"schema_version", "inputs", "out_dir", "similarity_mode",
                           "residual", "convergence", "damping", "department_feed",
                           "evaluation", "stress", "seed"}, "config")
        if raw.get("schema_version") != CONFIG_SCHEMA:
            raise ConfigError(
                f"config schema_version {raw.get('schema_version')!r} is not supported "
                f"(expected {CONFIG_SCHEMA})")

        inputs = raw.get("inputs", {})
        _expect_keys(inputs, {"doctors", "hospitals", "departments"}, "config.inputs")
        missing = {"doctors", "hospitals", "departments"} - set(inputs)
        if missing:
            raise ConfigError(f"config.inputs: missing {', '.join(sorted(missing))}")
        self.inputs = {k: (config_dir / v) for k, v in inputs.items()}

        self.out_dir = Path(out_override) if out_override else config_dir / raw.get("out_dir", "out")

        mode = raw.get("similarity_mode", "intersection_count")
        try:
            self.similarity_mode = SimilarityMode(mode)
        except ValueError:
            raise ConfigError(f"config.similarity_mode: unknown mode {mode!r}") from None

        seed = raw.get("seed", 0)
        if seed_override is not None:
            seed = seed_override
        if not is_int(seed) or seed < 0:
            raise ConfigError(f"config.seed: must be a non-negative integer, got {seed!r}")
        self.seed = seed

        residual_raw = raw.get("residual", {})
        _expect_keys(residual_raw, {layer.value for layer in LAYERS}, "config.residual")
        self.residuals: dict[LayerId, ResidualConfig] = {}
        for layer in LAYERS:
            spec = residual_raw.get(layer.value, {"distribution": "constant", "value": 0.2})
            default_seed = _derived_seed(self.seed, _LAYER_INDEX[layer])
            try:
                self.residuals[layer] = ResidualConfig.from_mapping(spec, default_seed=default_seed)
            except InvalidConfigError as exc:
                raise ConfigError(f"config.residual.{layer.value}: {exc}") from exc

        conv = raw.get("convergence", {})
        _expect_keys(conv, {"epsilon", "max_iterations", "norm"}, "config.convergence")
        try:
            self.convergence = ConvergenceConfig(
                epsilon=conv.get("epsilon", 0.001),
                max_iterations=conv.get("max_iterations", 1000),
                norm=DeltaNorm(conv.get("norm", "max_abs")),
            )
        except (InvalidConfigError, ValueError) as exc:
            raise ConfigError(f"config.convergence: {exc}") from exc

        damping = raw.get("damping", 1.0)
        if not is_real(damping) or not 0.0 < damping <= 1.0:
            raise ConfigError(f"config.damping: must lie in (0, 1], got {damping!r}")
        self.damping = float(damping)

        feed = raw.get("department_feed", "hospital")
        if feed not in ("hospital", "doctor"):
            raise ConfigError(f"config.department_feed: must be hospital or doctor, got {feed!r}")
        self.department_feed = LayerId(feed)

        evaluation = raw.get("evaluation", {})
        _expect_keys(evaluation, {"ks", "scenarios"}, "config.evaluation")
        ks_raw = evaluation.get("ks", {})
        _expect_keys(ks_raw, {layer.value for layer in LAYERS}, "config.evaluation.ks")
        self.ks: dict[LayerId, list[int]] = {}
        for layer in LAYERS:
            ks = ks_raw.get(layer.value, [3])
            if not isinstance(ks, list) or not all(is_int(k) and k >= 1 for k in ks):
                raise ConfigError(f"config.evaluation.ks.{layer.value}: must be a list of ints >= 1")
            self.ks[layer] = ks
        scenarios = evaluation.get("scenarios", ["uniform", "normal", "skewed"])
        unknown = set(scenarios) - set(SCENARIO_FAMILIES)
        if unknown:
            raise ConfigError(f"config.evaluation.scenarios: unknown {', '.join(sorted(unknown))}")
        self.scenarios = list(scenarios)

        stress = raw.get("stress", {})
        _expect_keys(stress, {"method", "concentration", "seeds"}, "config.stress")
        try:
            method = GeneratorMethod(stress.get("method", "identity"))
        except ValueError:
            raise ConfigError(f"config.stress.method: unknown method {stress.get('method')!r}") from None
        seeds = stress.get("seeds", [self.seed])
        if not isinstance(seeds, list) or not all(is_int(s) and s >= 0 for s in seeds):
            raise ConfigError("config.stress.seeds: must be a list of non-negative integers")
        try:
            self.stress = GeneratorConfig(method=method,
                                          concentration=stress.get("concentration", 1000.0),
                                          seed=seeds[0] if seeds else 0)
        except InvalidConfigError as exc:
            raise ConfigError(f"config.stress: {exc}") from exc
        self.stress_seeds = seeds


def load_config(path: str, out_override: str | None, seed_override: int | None) -> RunConfig:
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: not valid JSON: {exc}") from exc
    return RunConfig(raw, config_path.parent, out_override, seed_override)


def _network_path(config: RunConfig) -> Path:
    return config.out_dir / "network.json"


def _load_network(config: RunConfig) -> MultiLayerNetwork:
    path = _network_path(config)
    if not path.exists():
        raise InputError(f"{path} not found; run the build command first")
    return bundle.load_network(path)


def _network_residuals(config: RunConfig, network: MultiLayerNetwork):
    return {
        layer: generate_residual(config.residuals[layer], len(network.node_ids(layer)),
                                 layer, network.node_ids(layer))
        for layer in LAYERS
    }


def cmd_build(config: RunConfig) -> int:
    store = parse_store(config.inputs["doctors"], config.inputs["hospitals"],
                        config.inputs["departments"])
    cleaned = clean(store)
    if not any(cleaned.counts().values()):
        log.warning("store is empty after cleaning; writing an empty network bundle")
    dropped = {kind: store.counts()[kind] - cleaned.counts()[kind] for kind in store.counts()}
    if any(dropped.values()):
        log.info("cleaning dropped %s", ", ".join(f"{v} {k}" for k, v in dropped.items() if v))
    network = build_network(cleaned, config.similarity_mode)
    for violation in validate_network(network):
        log.warning("network invariant violated: %s", violation)
    bundle.save_network(network, _network_path(config))
    log.info("wrote %s", _network_path(config))
    return 0


def cmd_trust(config: RunConfig) -> int:
    network = _load_network(config)
    trusts = derive_network_trust(network)
    bundle.save_trust(trusts, config.out_dir / "trust.json")
    bundle.write_trust_values_csv(trusts, config.out_dir / "trust_values.csv")
    write_edge_table(export_edge_table(trusts.all_matrices()), config.out_dir / "edges.csv")
    log.info("wrote trust bundle, value histogram data, and edge table to %s", config.out_dir)
    return 0


def cmd_score(config: RunConfig) -> int:
    network = _load_network(config)
    trusts = derive_network_trust(network)
    residuals = _network_residuals(config, network)
    scored = score_network(trusts, residuals, config.convergence,
                           config.damping, config.department_feed)
    for layer, layer_scores in scored.items():
        bundle.write_scores_csv(layer, layer_scores, config.out_dir / f"scores_{layer.value}.csv")
        bundle.write_convergence_csv(layer, layer_scores,
                                     config.out_dir / f"convergence_{layer.value}.csv")
        result = layer_scores.result
        if not result.converged:
            log.warning("%s layer did not converge within %d iterations (last delta %.3g)",
                        layer.value, result.iterations,
                        result.deltas[-1] if result.deltas else float("nan"))
    log.info("wrote score and convergence files to %s", config.out_dir)
    return 0


def cmd_eval(config: RunConfig) -> int:
    store = clean(parse_store(config.inputs["doctors"], config.inputs["hospitals"],
                              config.inputs["departments"]))
    network = _load_network(config)
    trusts = derive_network_trust(network)
    truths = ground_truth_ratings(store)
    reports: list[MetricsReport] = []

    def ks_for(layer: LayerId, universe_size: int) -> list[int | None]:
        usable: list[int | None] = []
        for k in config.ks[layer]:
            if k > universe_size:
                log.warning("%s layer: skipping k=%d, only %d rated entities",
                            layer.value, k, universe_size)
                continue
            usable.append(k)
        return usable or [None]

    for scenario_index, scenario in enumerate(config.scenarios):
        family = SCENARIO_FAMILIES[scenario]
        residuals = {
            layer: generate_residual(
                family(_derived_seed(config.seed, _LAYER_INDEX[layer], scenario_index)),
                len(network.node_ids(layer)), layer, network.node_ids(layer))
            for layer in LAYERS
        }
        scored = score_network(trusts, residuals, config.convergence,
                               config.damping, config.department_feed)
        for layer in LAYERS:
            scores = dict(zip(scored[layer].result.scores.entity_ids,
                              scored[layer].result.scores.values.tolist()))
            truth = truths[layer.value]
            for k in ks_for(layer, len(set(scores) & set(truth))):
                reports.append(build_report(layer.value, "social_score", scenario,
                                            scores, truth, k=k))

    baselines = baseline_columns(store)
    for layer in LAYERS:
        truth = truths[layer.value]
        for name, column in baselines[layer.value].items():
            for k in ks_for(layer, len(set(column) & set(truth))):
                reports.append(build_report(layer.value, name, "", column, truth, k=k))

    bundle.write_metrics_csv(reports, config.out_dir / "metrics.csv")
    bundle.write_metrics_json(reports, config.out_dir / "metrics.json")
    log.info("wrote %d metric rows to %s", len(reports), config.out_dir)
    return 0


def cmd_stress(config: RunConfig) -> int:
    network = _load_network(config)
    trusts = derive_network_trust(network)
    residuals = _network_residuals(config, network)
    true_scores = score_network(trusts, residuals, config.convergence,
                                config.damping, config.department_feed)
    runs = run_stress(trusts, true_scores, config.stress, config.stress_seeds,
                      config.convergence, config.damping, config.department_feed,
                      ks=config.ks)
    bundle.write_stress_json(runs, config.stress.method.value, config.out_dir / "stress.json")
    bundle.write_stress_pairs_csv(runs, config.out_dir / "stress_pairs.csv")
    dropped = sum(run.rebuild.dropped_diagonal for run in runs)
    if dropped:
        log.warning("rebuild dropped %d diagonal record(s) across %d run(s)", dropped, len(runs))
    log.info("wrote stress results for %d seed(s) to %s", len(runs), config.out_dir)
    return 0


def cmd_report(config: RunConfig) -> int:
    artifacts = {
        name: (config.out_dir / name).exists()
        for name in ["network.json", "trust.json", "trust_values.csv", "edges.csv",
                     "metrics.csv", "metrics.json", "stress.json", "stress_pairs.csv"]
        + [f"scores_{layer.value}.csv" for layer in LAYERS]
        + [f"convergence_{layer.value}.csv" for layer in LAYERS]
    }
    summary: dict = {"schema_version": bundle.REPORT_SCHEMA, "artifacts": artifacts}
    if artifacts["network.json"]:
        network = bundle.load_network(_network_path(config))
        summary["layers"] = {layer.value: len(network.node_ids(layer)) for layer in LAYERS}
    scores_summary = {}
    for layer in LAYERS:
        path = config.out_dir / f"scores_{layer.value}.csv"
        if not path.exists():
            continue
        finals = bundle.read_scores_csv(path)
        top = sorted(finals, key=lambda i: (-finals[i], i))[:3]
        scores_summary[layer.value] = {"entities": len(finals), "top": top}
    if scores_summary:
        summary["scores"] = scores_summary
    out_path = config.out_dir / "report.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "build": cmd_build,
    "trust": cmd_trust,
    "score": cmd_score,
    "eval": cmd_eval,
    "stress": cmd_stress,
    "report": cmd_report,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustprop",
        description="Build trust networks from healthcare entity tables and score them.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "build": "parse and clean the entity CSVs, build the network bundle",
        "trust": "derive trust matrices and histogram/edge-table data",
        "score": "compute social scores and convergence traces",
        "eval": "compare scores and baselines against ground-truth ratings",
        "stress": "regenerate trust synthetically, rescore, and compare",
        "report": "summarize the artifacts in the output directory",
    }
    for name, description in descriptions.items():
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", default=None, help="output directory (overrides the config)")
        cmd.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config, args.out, args.seed)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        log.error("%s", exc)
        return 3
    except (InputError, TrustPropError) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
