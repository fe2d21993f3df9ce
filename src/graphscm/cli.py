"""Command-line entry point.

Subcommands: stats, split, train, eval, explain, synth. Every run that
produces artifacts also writes a manifest recording the resolved
configuration, input paths, seed, and artifact locations, so the run can
be reproduced exactly.

Exit codes: 0 success, 2 input/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, DimensionError, LoadError, NumericError
from .hetgraph import HeteroGraph, load_graph, write_dataset
from .interpret import diagram_to_json, export_dot, trim_to_dag
from .numcore import ACTIVATIONS, Tensor, expm_trace
from .scm import load_checkpoint, save_checkpoint
from .splits import (
    BIAS_KINDS,
    SplitSpec,
    iid_split,
    ood_split,
    split_report,
    write_report_csv,
)
from .synth import (
    SynthSpec,
    coauthor_agreement,
    generate,
    regime_split,
    rule_accuracy,
)
from .train import (
    ABLATIONS,
    TrainConfig,
    ablation_presets,
    builder_for_model,
    evaluate,
    train,
    write_history_csv,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _write_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# config resolution: defaults < config file < explicit CLI flags

_CONFIG_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _parse_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"missing config file: {path}")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = [part.strip() for part in line.split("=", 1)]
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _coerce(key, value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: config key {key!r}: {exc}") from exc
    return out


def _coerce(key: str, value: str):
    current = getattr(TrainConfig(), key)
    if isinstance(current, bool):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expects a boolean, got {value!r}")
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    return value


def resolve_train_config(args) -> TrainConfig:
    config = TrainConfig()
    if getattr(args, "config", None):
        for key, value in _parse_config_file(args.config).items():
            setattr(config, key, value)
    flag_map = {
        "hidden": "hidden_dim",
        "batch_size": "batch_size",
        "lr": "learning_rate",
        "patience": "patience",
        "max_epochs": "max_epochs",
        "beta": "beta",
        "gamma": "gamma",
        "activation": "activation",
        "max_metapath_len": "max_metapath_len",
        "seed": "seed",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "multiset_neighbors", False):
        config.multiset_neighbors = True
    ablation = getattr(args, "ablation", None) or "full"
    config.beta, config.gamma = ablation_presets(ablation, config.beta, config.gamma)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# subcommands

def cmd_stats(args) -> int:
    graph = load_graph(args.dataset)
    schema = graph.schema
    summary = {
        "nodes": graph.total_nodes,
        "node_types": len(schema.node_types),
        "edges": graph.total_edges,
        "edge_types": len(schema.relations),
        "target": schema.target_type,
        "classes": schema.num_classes,
        "labeled": int(graph.labeled_nodes().size),
        "per_type_nodes": {t: graph.num_nodes(t) for t in schema.node_types},
        "per_relation_edges": {r.name: int(graph.edges[r.name].shape[0]) for r in schema.relations},
    }
    width = max(len(k) for k in ("nodes", "node_types", "edges", "edge_types", "target", "classes"))
    for key in ("nodes", "node_types", "edges", "edge_types", "target", "classes"):
        print(f"{key.ljust(width)}  {summary[key]}")
    _print_json(summary)
    if args.json:
        _write_json(summary, args.json)
    return EXIT_OK


def cmd_split(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    graph = load_graph(args.dataset)
    labeled = [int(i) for i in graph.labeled_nodes()]
    if args.kind == "iid":
        spec = iid_split(labeled, seed=args.seed)
    else:
        spec = ood_split(graph, args.kind, seed=args.seed, max_len=args.max_metapath_len)
    out_dir = args.out or args.dataset
    os.makedirs(out_dir, exist_ok=True)
    splits_path = os.path.join(out_dir, "splits.json")
    report_path = os.path.join(out_dir, "split-report.csv")
    spec.to_json(splits_path)
    write_report_csv(split_report(graph, spec, max_len=args.max_metapath_len), report_path)
    print(f"splits: {splits_path}")
    print(f"report: {report_path}")
    print(
        f"sizes: train={len(spec.train)} val={len(spec.val)} test={len(spec.test)} "
        f"({spec.provenance}, seed {spec.seed})"
    )
    return EXIT_OK


def _load_splits(graph: HeteroGraph, dataset: str, splits_arg: str | None) -> SplitSpec:
    path = splits_arg or os.path.join(dataset, "splits.json")
    if not os.path.isfile(path):
        raise ConfigError(f"missing splits file: {path} (run `graphscm split` first)")
    spec = SplitSpec.from_json(path)
    try:
        spec.validate_against(graph)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return spec


_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _blas_name() -> str:
    try:  # the mode argument needs numpy 1.26 or later
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _run_environment(wall_s: float) -> dict:
    """What produced a run: interpreter, numpy and its BLAS, the thread
    settings BLAS reads, the core count and the run's wall time."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_ENV_VARS},
        "cpu_count": os.cpu_count(),
        "wall_s": wall_s,
    }


def cmd_train(args) -> int:
    started = time.perf_counter()
    graph = load_graph(args.dataset)
    splits = _load_splits(graph, args.dataset, args.splits)
    config = resolve_train_config(args)
    os.makedirs(args.out, exist_ok=True)

    result = train(graph, splits, config)
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    history_path = os.path.join(args.out, "history.csv")
    metrics_path = os.path.join(args.out, "metrics.json")
    manifest_path = os.path.join(args.out, "manifest.json")

    save_checkpoint(result.model, checkpoint_path)
    write_history_csv(result.history, history_path)
    test_metrics = evaluate(graph, result.model, splits.test, builder=result.builder)
    _write_json(test_metrics.to_dict(), metrics_path)

    manifest = {
        "tool_version": __version__,
        "command": "train",
        "dataset": os.path.abspath(args.dataset),
        "splits_file": os.path.abspath(args.splits or os.path.join(args.dataset, "splits.json")),
        "split_provenance": splits.provenance,
        "split_seed": splits.seed,
        "ablation": getattr(args, "ablation", None) or "full",
        "config": dataclasses.asdict(config),
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "best_val_macro_f1": result.best_val_macro_f1,
        "artifacts": {
            "checkpoint": os.path.abspath(checkpoint_path),
            "history": os.path.abspath(history_path),
            "metrics": os.path.abspath(metrics_path),
            "manifest": os.path.abspath(manifest_path),
        },
        "environment": _run_environment(time.perf_counter() - started),
    }
    _write_json(manifest, manifest_path)
    print(
        f"trained {result.epochs_run} epochs (best {result.best_epoch}); "
        f"test macro_f1={test_metrics.macro_f1:.4f} acc={test_metrics.accuracy:.4f}"
    )
    print(f"artifacts in {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    graph = load_graph(args.dataset)
    splits = _load_splits(graph, args.dataset, args.splits)
    builder = builder_for_model(graph, model)
    part = getattr(args, "split_name", "test")
    indices = getattr(splits, part)
    metrics = evaluate(graph, model, indices, builder=builder)
    payload = metrics.to_dict()
    payload["split"] = part
    _print_json(payload)
    if args.out:
        _write_json(payload, args.out)
    return EXIT_OK


def cmd_explain(args) -> int:
    model = load_checkpoint(args.checkpoint)
    a = model.scm.dag.data
    residual = float(expm_trace(Tensor(a)).data) - a.shape[0]
    diagram = trim_to_dag(a, model.meta.variable_names)
    removed_mass = sum(entry["abs_weight"] for entry in diagram.removal_log)
    os.makedirs(args.out, exist_ok=True)
    dot_path = os.path.join(args.out, "diagram.dot")
    json_path = os.path.join(args.out, "diagram.json")
    text = export_dot(diagram)
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    diagram_to_json(diagram, json_path)
    sys.stdout.write(text)
    print(
        f"removed {len(diagram.removal_log)} edges of total |weight| {removed_mass:.6g}; "
        f"h(A) before trimming {residual:.6g}; diagram in {args.out}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        authors=args.authors,
        num_classes=args.classes,
        term_dim=args.classes,
        spurious_strength=args.spurious,
        noise=args.noise,
        seed=args.seed,
        terms=args.terms,
    )
    graph, truth = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    write_dataset(graph, args.out)
    truth.to_json(os.path.join(args.out, "ground-truth.json"))
    splits = regime_split(truth)
    splits.to_json(os.path.join(args.out, "splits.json"))

    rng = np.random.default_rng(spec.seed)
    report = {
        "authors": spec.authors,
        "classes": spec.num_classes,
        "spurious_strength": spec.spurious_strength,
        "noise": spec.noise,
        "planted_cause": truth.planted_cause,
        "planted_homophily_gap": truth.planted_homophily_gap(),
        "train_regime_coauthor_agreement": coauthor_agreement(
            graph, set(truth.regime_indices("train")), rng=rng
        ),
        "test_regime_coauthor_agreement": coauthor_agreement(
            graph, set(truth.regime_indices("test")), rng=rng
        ),
        "venue_majority_rule_accuracy": rule_accuracy(graph),
    }
    _write_json(report, os.path.join(args.out, "synth-report.json"))
    _print_json(report)
    print(f"dataset in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphscm",
        description="Causal-structure learning over heterogeneous graph semantics",
    )
    parser.add_argument("--version", action="version", version=f"graphscm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset summary (counts, types, target)")
    p.add_argument("dataset")
    p.add_argument("--json", help="also write the summary JSON here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="generate an i.i.d or bias-clustered o.o.d split")
    p.add_argument("dataset")
    p.add_argument("--kind", choices=("iid",) + BIAS_KINDS, default="iid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-metapath-len", type=int, default=2, dest="max_metapath_len")
    p.add_argument("--out", help="output directory (default: the dataset directory)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit the model and write run artifacts")
    p.add_argument("dataset")
    p.add_argument("--splits", help="splits.json path (default: <dataset>/splits.json)")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--config", help="key=value config file (flags override it)")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--ablation", choices=ABLATIONS)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--hidden", type=int)
    p.add_argument("--max-metapath-len", type=int, dest="max_metapath_len")
    p.add_argument("--activation", choices=tuple(ACTIVATIONS))
    p.add_argument("--lr", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--multiset-neighbors", action="store_true", dest="multiset_neighbors")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    p.add_argument("dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--splits", help="splits.json path (default: <dataset>/splits.json)")
    p.add_argument("--split-name", choices=("train", "val", "test"), default="test", dest="split_name")
    p.add_argument("--out", help="write the metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="trim the learned DAG and export the diagram")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_explain)

    defaults = SynthSpec()
    p = sub.add_parser("synth", help="generate a synthetic dataset with planted causality")
    p.add_argument("--out", required=True)
    p.add_argument("--authors", type=int, default=defaults.authors)
    p.add_argument("--classes", type=int, default=defaults.num_classes)
    p.add_argument("--terms", type=int, default=defaults.terms)
    p.add_argument("--spurious", type=float, default=defaults.spurious_strength)
    p.add_argument("--noise", type=float, default=defaults.noise)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, ConfigError, ContractError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
