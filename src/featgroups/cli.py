"""Experiment harness: generate data, train grouping variants, sweep seeds,
and emit the benchmark table plus cluster-history artifacts.

All outputs are reproducible bit-exactly from (config, seed): no timestamps
or machine state enter results.json, history.jsonl, checkpoints, or CSVs.
Wall-clock timings live only in the benchmark manifest.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import ari, nmi, silhouette
from .serialization import atomic_write, write_checkpoint
from .synthdata import (
    GpSpec,
    LabeledDataset,
    STATIC_MODES,
    export_csv,
    generate_dataset,
    load_dataset,
    save_dataset,
    static_kmeans_baseline,
    static_transform,
)
from .trainer import (
    RESULTS_SCHEMA,
    ExperimentConfig,
    TrainResult,
    TrainingDiverged,
    train,
)

CONFIG_SCHEMA = "featgroups-config-v1"
BENCHMARK_SCHEMA = "featgroups-benchmark-v1"
FLOW_SCHEMA = "featgroups-clusterflow-v1"
OUTPUT_ROOT_ENV = "FEATGROUPS_OUT"

BENCHMARK_VARIANTS = ("random", "oracle") + tuple(f"static_{m}" for m in STATIC_MODES) + ("dynamic",)


class ConfigError(Exception):
    """Anything wrong with the configuration file or overrides."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def default_config() -> dict:
    return {
        "schema": CONFIG_SCHEMA,
        "dataset": asdict(GpSpec()),
        "train": ExperimentConfig().to_dict(),
        "output_dir": "runs",
    }


def load_config(path: str | None, overrides: list[str]) -> dict:
    """The defaults, then the config file at `path`, then each `--override`
    in order. An override is a one-field config: a bare key is a train field
    (or `output_dir`), a dotted key `dataset.f` or `train.f`."""
    config = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
        _merge(config, user, path)
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} must look like key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        if len(parts) == 2 and parts[0] in ("dataset", "train"):
            user = {parts[0]: {parts[1]: value}}
        elif len(parts) == 1:
            user = {"output_dir": value} if key == "output_dir" else {"train": {key: value}}
        else:
            raise ConfigError(f"override {key!r}: no such config path")
        _merge(config, user, f"override {key!r}")
    return config


def _merge(config: dict, user, source: str):
    """Merge `user`, a config object read from `source`, into `config`;
    anything that is not a known field fails naming `source`."""
    if not isinstance(user, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    schema = user.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"{source}: unsupported schema {schema!r} (expected {CONFIG_SCHEMA})")
    for section in ("dataset", "train"):
        body = user.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{source}: section {section!r} must be an object")
        for key, value in body.items():
            if key not in config[section]:
                raise ConfigError(f"{source}: unknown field {section}.{key}")
            config[section][key] = value
    if "output_dir" in user:
        config["output_dir"] = user["output_dir"]
    unknown = set(user) - {"schema", "dataset", "train", "output_dir"}
    if unknown:
        raise ConfigError(f"{source}: unknown top-level fields {sorted(unknown)}")


def experiment_config(config: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_dict(config["train"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train config invalid: {exc}")


def gp_spec(config: dict) -> GpSpec:
    try:
        return GpSpec(**config["dataset"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dataset config invalid: {exc}")


def output_dir(args, config: dict) -> Path:
    if args.out is not None:
        root = Path(args.out)
    elif OUTPUT_ROOT_ENV in os.environ:
        root = Path(os.environ[OUTPUT_ROOT_ENV])
    elif isinstance(config["output_dir"], str):
        root = Path(config["output_dir"])
    else:
        raise ConfigError(f"output_dir must be a string, got {config['output_dir']!r}")
    root.mkdir(parents=True, exist_ok=True)
    return root


def config_hash(config: dict) -> str:
    """Hash of what decides the experiment: the schema and the dataset and
    train sections, not where its outputs go."""
    experiment = {key: config[key] for key in ("schema", "dataset", "train")}
    canon = json.dumps(experiment, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def parse_seeds(arg: str | None, fallback: list[int]) -> list[int]:
    if arg is None:
        return fallback
    try:
        seeds = [int(s) for s in arg.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be a comma-separated list of integers, got {arg!r}")
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise ConfigError(f"--seeds must list at least one non-negative seed, each once, got {arg!r}")
    return seeds


# ----------------------------------------------------------------------
# dataset plumbing
# ----------------------------------------------------------------------


def dataset_paths(root: Path) -> tuple[Path, Path]:
    return root / "dataset.bin", root / "dataset.json"


def require_dataset(root: Path, config: dict) -> LabeledDataset:
    """The dataset under ``root``, which must have been generated from the
    config's dataset section; a sidecar without generator settings is taken
    as it is."""
    binary, sidecar = dataset_paths(root)
    if not binary.exists() or not sidecar.exists():
        raise ConfigError(
            f"dataset not found under {root} (expected {binary.name} and {sidecar.name}); "
            "run the generate command first"
        )
    dataset = load_dataset(binary, sidecar)
    if dataset.spec is not None:
        wanted = gp_spec(config)
        for field in fields(GpSpec):
            found, expected = getattr(dataset.spec, field.name), getattr(wanted, field.name)
            if found != expected:
                raise ConfigError(
                    f"{sidecar} is stale: it was generated with {field.name} {found!r}, the config asks for"
                    f" {expected!r}; run the generate command again"
                )
    return dataset


def require_trainable(exp: ExperimentConfig, dataset: LabeledDataset, **changes):
    """`exp` with `changes`, a config a command will train on `dataset`, must
    be valid and fit the dataset's features."""
    try:
        replace(exp, **changes).check_features(dataset.series.shape[2])
    except ValueError as exc:
        raise ConfigError(f"train config invalid: {exc}")


# ----------------------------------------------------------------------
# per-run artifacts
# ----------------------------------------------------------------------


def run_single_training(exp: ExperimentConfig, dataset: LabeledDataset, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = train(exp, dataset)
    except TrainingDiverged as exc:
        diagnostic = {
            "schema": RESULTS_SCHEMA,
            "status": "diverged",
            "seed": exp.seed,
            "divergence": exc.info,
        }
        with atomic_write(out / "results.json") as fh:
            fh.write(json.dumps(diagnostic, sort_keys=True, indent=2) + "\n")
        raise
    write_run_artifacts(result, exp, out)
    return result.metrics


def write_run_artifacts(result: TrainResult, exp: ExperimentConfig, out: Path):
    with atomic_write(out / "history.jsonl") as fh:
        for record in result.history:
            fh.write(record.to_json() + "\n")
    metrics = {k: v for k, v in result.metrics.items() if k != "partition"}
    results = {
        "schema": RESULTS_SCHEMA,
        "status": "ok",
        "config": exp.to_dict(),
        "best_epoch": result.best_epoch,
        "epochs_ran": len(result.history),
        "metrics": metrics,
        "partition": result.metrics.get("partition"),
    }
    with atomic_write(out / "results.json") as fh:
        fh.write(json.dumps(results, sort_keys=True, indent=2) + "\n")
    model_state = result.model.state_dict()
    model_state["input_norm/mean"] = result.norm_mean
    model_state["input_norm/std"] = result.norm_std
    write_checkpoint(out / "checkpoint.bin", model_state, result.cluster_state)


def write_csv(path: Path, schema: str, header: str, rows):
    """A CSV artifact: a `# schema:` line, the header, then one line of
    comma-joined values per row."""
    with atomic_write(path) as fh:
        fh.write(f"# schema: {schema}\n{header}\n")
        for row in rows:
            fh.write(",".join(str(value) for value in row) + "\n")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_generate(args) -> int:
    config = load_config(args.config, args.override)
    root = output_dir(args, config)
    dataset = generate_dataset(gp_spec(config))
    binary, sidecar = dataset_paths(root)
    save_dataset(dataset, binary, sidecar)
    if args.csv:
        export_csv(dataset, root / "dataset.csv")
    print(f"wrote {binary} ({dataset.series.shape[0]}x{dataset.series.shape[1]}x{dataset.series.shape[2]})")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.override)
    root = output_dir(args, config)
    dataset = require_dataset(root, config)
    exp = experiment_config(config)
    seeds = parse_seeds(args.seeds, [exp.seed])
    require_trainable(exp, dataset)
    for seed in seeds:
        out = root if len(seeds) == 1 else root / f"seed_{seed}"
        metrics = run_single_training(replace(exp, seed=seed), dataset, out)
        shown = {k: round(v, 4) for k, v in metrics.items() if isinstance(v, float)}
        print(f"seed {seed}: {shown}")
    return 0


def benchmark_variant(variant: str, exp: ExperimentConfig, dataset: LabeledDataset, out_root: Path) -> dict:
    """One (variant, `exp.seed`) cell's ari, nmi and silhouette; a trained
    cell writes its run to `out_root/<variant>/seed_<seed>`."""
    seed = exp.seed
    truth = dataset.truth_labels
    if variant.startswith("static_"):
        mode = variant[len("static_") :]
        member = static_kmeans_baseline(dataset, mode, exp.groups, seed)
        partition = member.argmax(axis=1)
        vectors = static_transform(dataset, mode)
        sil = silhouette(vectors, partition) if len(np.unique(partition)) >= 2 else None
        return {"ari": ari(truth, partition), "nmi": nmi(truth, partition), "silhouette": sil}
    if variant == "oracle":
        # one group per truth group, whatever K the other cells use
        exp = replace(exp, grouping="fixed", fixed_groups=truth.tolist(), groups=len(dataset.truth_groups))
    elif variant == "random":
        assignment = np.random.default_rng([seed, 99]).integers(0, exp.groups, size=truth.size)
        exp = replace(exp, grouping="fixed", fixed_groups=assignment.tolist())
    else:  # dynamic
        exp = replace(exp, grouping="dynamic", fixed_groups=None)
    metrics = run_single_training(exp, dataset, out_root / variant / f"seed_{seed}")
    return {key: metrics[key] for key in ("ari", "nmi", "silhouette")}


def cmd_benchmark(args) -> int:
    config = load_config(args.config, args.override)
    # a bad field fails the command before any data or cell, not cell by cell
    exp = experiment_config(config)
    seeds = parse_seeds(args.seeds, [0, 1, 2, 3, 4])
    spec = gp_spec(config)
    root = output_dir(args, config)
    binary, sidecar = dataset_paths(root)
    if binary.exists() and sidecar.exists():
        dataset = require_dataset(root, config)
    else:
        dataset = generate_dataset(spec)
        save_dataset(dataset, binary, sidecar)
    # the dynamic cells train this config; the random and oracle cells take
    # their groups from the dataset, and the static K-means baselines score
    # K clusters against its ground-truth groups
    require_trainable(exp, dataset, grouping="dynamic", fixed_groups=None)
    if exp.groups > len(dataset.truth_groups):
        raise ConfigError(
            f"train config invalid: groups {exp.groups} exceeds the dataset's"
            f" {len(dataset.truth_groups)} ground-truth groups, which the static baselines score against"
        )
    runs, table = [], []
    for variant in BENCHMARK_VARIANTS:
        scores = []
        for seed in seeds:
            cell = root / variant / f"seed_{seed}"
            (cell / "error.txt").unlink(missing_ok=True)  # an earlier run's failure
            run = {"variant": variant, "seed": seed, "out": None if variant.startswith("static_") else str(cell)}
            start = time.monotonic()
            try:
                scores.append(benchmark_variant(variant, replace(exp, seed=seed), dataset, root))
                run.update(wall_seconds=round(time.monotonic() - start, 3), error=None)
            except Exception as exc:  # a failed cell must not sink the table
                cell.mkdir(parents=True, exist_ok=True)
                with atomic_write(cell / "error.txt") as fh:
                    fh.write(traceback.format_exc())
                run.update(out=str(cell), wall_seconds=0.0, error=f"{type(exc).__name__}: {exc}")
            runs.append(run)
        if len(scores) < len(seeds):
            table.append((variant, len(seeds), "", "", "", "", "", "", "FAILED"))
            continue
        stats = []
        for key in ("ari", "nmi", "silhouette"):
            values = np.array([score[key] for score in scores], dtype=float)  # a None silhouette is nan
            stats += [f"{np.nanmean(values):.6f}", f"{np.nanstd(values):.6f}"]
        table.append((variant, len(seeds), *stats, "OK"))
    table_path = root / "benchmark.csv"
    header = "variant,seeds,ari_mean,ari_std,nmi_mean,nmi_std,silhouette_mean,silhouette_std,status"
    write_csv(table_path, BENCHMARK_SCHEMA, header, table)

    manifest = {
        "schema": BENCHMARK_SCHEMA,
        "version": __version__,
        "config_hash": config_hash(config),
        "dataset": None if dataset.spec is None else asdict(dataset.spec),
        "seeds": seeds,
        "table": str(table_path),
        "runs": runs,
    }
    with atomic_write(root / "manifest.json") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(table_path.read_text(), end="")
    for run in runs:
        if run["error"]:
            print(f"FAILED {run['variant']} seed {run['seed']}: {run['error']}", file=sys.stderr)
    return 0


def cmd_history(args) -> int:
    path = Path(args.history)
    if not path.exists():
        raise ConfigError(f"history file not found: {path}")
    flow_rows = []
    size_rows = []
    last_epoch = -1
    shape = None  # the first record's (features, clusters)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                epoch = record["epoch"]
                if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
                    raise ValueError(f"epoch must be an int >= 0, got {epoch!r}")
                if epoch <= last_epoch:
                    raise ValueError(f"epoch {epoch} must be greater than the previous record's {last_epoch}")
                member = np.asarray(record["membership"])
                if member.ndim != 2 or member.shape[1] == 0:
                    raise ValueError(f"membership must be a (features, clusters) matrix, got shape {member.shape}")
                if shape is not None and member.shape != shape:
                    raise ValueError(f"membership shape {member.shape} differs from the first record's {shape}")
                # a cluster may be empty, a feature may not
                if member.dtype.kind != "i" or not np.isin(member, (0, 1)).all() or not member.any(axis=1).all():
                    raise ValueError(f"membership must be 0/1 with a 1 in every feature's row, got {member.tolist()}")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed history record ({exc})")
            last_epoch, shape = epoch, member.shape
            for feature in range(member.shape[0]):
                flow_rows.append((epoch, feature, int(member[feature].argmax())))
            for cluster in range(member.shape[1]):
                size_rows.append((epoch, cluster, int(member[:, cluster].sum())))
    if not size_rows:
        raise ConfigError(f"{path}: no history records")
    out = Path(args.out) if args.out else path.parent
    out.mkdir(parents=True, exist_ok=True)
    flow_path = out / "cluster_flow.csv"
    write_csv(flow_path, FLOW_SCHEMA, "epoch,feature,cluster", flow_rows)
    sizes_path = out / "cluster_sizes.csv"
    write_csv(sizes_path, FLOW_SCHEMA, "epoch,cluster,size", size_rows)
    print(f"wrote {flow_path} and {sizes_path}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featgroups",
        description="Learned feature-group experiments on the synthetic benchmark",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out", help=f"output directory (or ${OUTPUT_ROOT_ENV}, or config output_dir)")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override, dotted path (train.seed=3) or bare train field (seed=3)",
        )

    p = sub.add_parser("generate", help="generate the synthetic dataset files")
    common(p)
    p.add_argument("--csv", action="store_true", help="also write a CSV view of the series")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one run (or a seed sweep) on the generated dataset")
    common(p)
    p.add_argument("--seeds", help="comma-separated training seeds (default: config train.seed)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="random/oracle/static/dynamic table over seeds")
    common(p)
    p.add_argument("--seeds", help="comma-separated seeds (default: 0,1,2,3,4)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("history", help="convert a history.jsonl into cluster-flow CSVs")
    p.add_argument("history", help="path to history.jsonl")
    p.add_argument("--out", help="output directory (default: alongside the history file)")
    p.set_defaults(func=cmd_history)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(json.dumps({"error": str(exc), "info": exc.info}), file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: exit 1 with diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
