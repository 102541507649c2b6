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
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from . import bundle
from .builder import SimilarityMode, build_network, layer_attributes
from .errors import ConfigError, InputError, TrustPropError
from .ingest import baseline_columns, clean, ground_truth_ratings, parse_store
from .metrics import MetricsReport, layer_reports, top_k_ids
from .model import LAYERS, LayerId, MultiLayerNetwork
from .scoring import (
    ConvergenceConfig,
    DeltaNorm,
    LayerScores,
    ResidualConfig,
    _check_damping,
    generate_residual,
    is_int,
    score_network,
)
from .stress import GeneratorConfig, GeneratorMethod, export_edge_table, run_stress, write_edge_table
from .trust import TrustNetwork, derive_network_trust

log = logging.getLogger("trustprop")

CONFIG_SCHEMA = 1

#: residual families used for the three evaluation scenarios. A scenario's
#: draws are seeded by its family's position here, so this order fixes the seeds.
SCENARIO_FAMILIES = {
    "uniform": lambda seed: ResidualConfig.uniform(0.0, 1.0, seed=seed),
    "normal": lambda seed: ResidualConfig.normal(0.5, 0.15, seed=seed),
    "skewed": lambda seed: ResidualConfig.skewed(2.0, 8.0, seed=seed),
}


def _expect_keys(mapping: dict, allowed: set[str], context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(sorted(unknown))}")


def _section(raw: dict, key: str, allowed: set[str], context: str) -> dict:
    """``raw[key]`` (an empty object when absent), once it is an object of allowed keys."""
    section = raw.get(key, {})
    _expect_keys(section, allowed, f"{context}.{key}")
    return section


@contextmanager
def _prefixed(context: str) -> Iterator[None]:
    """Re-raise a ConfigError or ValueError from the block as a ConfigError led by ``context``."""
    try:
        yield
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _distinct(values, valid, context: str, what: str, *, empty_ok: bool = False) -> list:
    """``values`` once it is a list of distinct entries that are all ``valid``, not empty
    unless ``empty_ok``."""
    if not isinstance(values, list) or not all(valid(v) for v in values):
        raise ConfigError(f"{context}: must be a list of {what}, got {values!r}")
    if not (values or empty_ok):
        raise ConfigError(f"{context}: must not be empty, since an empty list asks for no work")
    if len(set(values)) < len(values):
        raise ConfigError(f"{context}: entries must be distinct, got {values!r}")
    return values


def _derived_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence((master, *key)).generate_state(1)[0])


class RunConfig:
    """Validated view of the JSON config file, with every seeded draw's config."""

    def __init__(self, raw: dict, config_dir: Path, out_override: str | None,
                 seed_override: int | None):
        _expect_keys(raw, {"schema_version", "inputs", "out_dir", "similarity_mode",
                           "residual", "convergence", "damping", "department_feed",
                           "evaluation", "stress", "seed"}, "config")
        if raw.get("schema_version") != CONFIG_SCHEMA:
            raise ConfigError(
                f"config schema_version {raw.get('schema_version')!r} is not supported "
                f"(expected {CONFIG_SCHEMA})")

        inputs = _section(raw, "inputs", {"doctors", "hospitals", "departments"}, "config")
        missing = {"doctors", "hospitals", "departments"} - set(inputs)
        if missing:
            raise ConfigError(f"config.inputs: missing {', '.join(sorted(missing))}")
        out_dir = raw.get("out_dir", "out")
        if not all(isinstance(v, str) for v in (*inputs.values(), out_dir)):
            raise ConfigError("config.inputs and config.out_dir: paths must be strings")
        self.inputs = {k: (config_dir / v) for k, v in inputs.items()}
        self.out_dir = Path(out_override) if out_override else config_dir / out_dir

        with _prefixed("config.similarity_mode"):
            self.similarity_mode = SimilarityMode(raw.get("similarity_mode", "intersection_count"))

        seed = raw.get("seed", 0) if seed_override is None else seed_override
        if not is_int(seed) or seed < 0:
            raise ConfigError(f"config.seed: must be a non-negative integer, got {seed!r}")
        self.seed = seed

        layer_keys = {layer.value for layer in LAYERS}
        residual = _section(raw, "residual", layer_keys, "config")
        self.residuals: dict[LayerId, ResidualConfig] = {}
        for index, layer in enumerate(LAYERS):
            spec = residual.get(layer.value, {"distribution": "constant", "value": 0.2})
            with _prefixed(f"config.residual.{layer.value}"):
                self.residuals[layer] = ResidualConfig.from_mapping(
                    spec, default_seed=_derived_seed(seed, index))

        convergence = _section(raw, "convergence", {"epsilon", "max_iterations", "norm"}, "config")
        with _prefixed("config.convergence"):
            self.convergence = ConvergenceConfig(
                **{**convergence, "norm": DeltaNorm(convergence.get("norm", "max_abs"))})

        with _prefixed("config"):
            self.damping = _check_damping(raw.get("damping", 1.0))

        feed = raw.get("department_feed", "hospital")
        if feed not in ("hospital", "doctor"):
            raise ConfigError(f"config.department_feed: must be hospital or doctor, got {feed!r}")
        self.department_feed = LayerId(feed)

        evaluation = _section(raw, "evaluation", {"ks", "scenarios"}, "config")
        ks = _section(evaluation, "ks", layer_keys, "config.evaluation")
        self.ks: dict[LayerId, list[int]] = {
            layer: _distinct(ks.get(layer.value, [3]), lambda k: is_int(k) and k >= 1,
                             f"config.evaluation.ks.{layer.value}", "ints >= 1", empty_ok=True)
            for layer in LAYERS}
        families = list(SCENARIO_FAMILIES)
        names = _distinct(evaluation.get("scenarios", families),
                          lambda name: isinstance(name, str) and name in SCENARIO_FAMILIES,
                          "config.evaluation.scenarios", f"scenario names {families}")
        self.scenarios: dict[str, dict[LayerId, ResidualConfig]] = {
            name: {layer: SCENARIO_FAMILIES[name](_derived_seed(seed, index, families.index(name)))
                   for index, layer in enumerate(LAYERS)}
            for name in names}

        stress = _section(raw, "stress", {"method", "concentration", "seeds"}, "config")
        with _prefixed("config.stress"):
            self.stress = GeneratorConfig(method=GeneratorMethod(stress.get("method", "identity")),
                                          concentration=stress.get("concentration", 1000.0))
        self.stress_seeds: list[int] = _distinct(
            stress.get("seeds", [seed]), lambda s: is_int(s) and s >= 0, "config.stress.seeds",
            "non-negative integers")


def load_config(path: str, out_override: str | None, seed_override: int | None) -> RunConfig:
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
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


def _score(config: RunConfig, network: MultiLayerNetwork, trusts: TrustNetwork,
           residual_configs: dict[LayerId, ResidualConfig]) -> dict[LayerId, LayerScores]:
    """Draw each layer's residuals from its config and score all three layers."""
    residuals = {layer: generate_residual(residual_configs[layer], len(network.node_ids(layer)),
                                          layer, network.node_ids(layer))
                 for layer in LAYERS}
    return score_network(trusts, residuals, config.convergence, config.damping,
                         config.department_feed)


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
    bundle.save_network(network, _network_path(config))
    log.info("wrote %s", _network_path(config))
    return 0


def cmd_trust(config: RunConfig) -> int:
    network = _load_network(config)
    trusts = derive_network_trust(network)
    table = export_edge_table(trusts.all_matrices())
    bundle.save_trust(trusts, config.out_dir / "trust.json")
    bundle.write_trust_values_csv(table, config.out_dir / "trust_values.csv")
    write_edge_table(table, config.out_dir / "edges.csv")
    log.info("wrote trust bundle, value histogram data, and edge table to %s", config.out_dir)
    return 0


def cmd_score(config: RunConfig) -> int:
    network = _load_network(config)
    trusts = derive_network_trust(network)
    scored = _score(config, network, trusts, config.residuals)
    for layer, layer_scores in scored.items():
        bundle.write_scores_csv(layer_scores, config.out_dir / f"scores_{layer.value}.csv")
        bundle.write_convergence_csv(layer_scores, config.out_dir / f"convergence_{layer.value}.csv")
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
    for layer in LAYERS:
        ids, _ = layer_attributes(store, layer)
        if ids != network.node_ids(layer):
            raise InputError(f"the cleaned input tables' {layer.value} ids differ from those in "
                             f"{_network_path(config)}; run the build command again")
    if network.provenance.get("inputs_sha256") != store.provenance["inputs_sha256"]:
        raise InputError(f"the input tables differ from those {_network_path(config)} was built "
                         "from; run the build command again")
    trusts = derive_network_trust(network)
    truths = ground_truth_ratings(store)
    reports: list[MetricsReport] = []
    for scenario, residual_configs in config.scenarios.items():
        scored = _score(config, network, trusts, residual_configs)
        for layer in LAYERS:
            scores = dict(zip(scored[layer].result.scores.entity_ids,
                              scored[layer].result.scores.values.tolist()))
            reports += layer_reports(layer.value, "social_score", scenario, scores,
                                     truths[layer.value], config.ks[layer])

    baselines = baseline_columns(store)
    for layer in LAYERS:
        for name, column in baselines[layer.value].items():
            reports += layer_reports(layer.value, name, "", column, truths[layer.value],
                                     config.ks[layer])

    bundle.write_metrics_csv(reports, config.out_dir / "metrics.csv")
    bundle.write_metrics_json(reports, config.out_dir / "metrics.json")
    log.info("wrote %d metric rows to %s", len(reports), config.out_dir)
    return 0


def cmd_stress(config: RunConfig) -> int:
    network = _load_network(config)
    trusts = derive_network_trust(network)
    true_scores = _score(config, network, trusts, config.residuals)
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
        scores_summary[layer.value] = {
            "entities": len(finals),
            "top": top_k_ids(finals, min(3, len(finals))) if finals else []}
    if scores_summary:
        summary["scores"] = scores_summary
    bundle.write_json(summary, config.out_dir / "report.json")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


#: each command's function and its help text
_COMMANDS = {
    "build": (cmd_build, "parse and clean the entity CSVs, build the network bundle"),
    "trust": (cmd_trust, "derive trust matrices and histogram/edge-table data"),
    "score": (cmd_score, "compute social scores and convergence traces"),
    "eval": (cmd_eval, "compare scores and baselines against ground-truth ratings"),
    "stress": (cmd_stress, "regenerate trust synthetically, rescore, and compare"),
    "report": (cmd_report, "summarize the artifacts in the output directory"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustprop",
        description="Build trust networks from healthcare entity tables and score them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, description) in _COMMANDS.items():
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
        return _COMMANDS[args.command][0](config)
    except ConfigError as exc:
        log.error("%s", exc)
        return 3
    except (TrustPropError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
