"""The benchmark's workloads: what each sets up, runs and checks.

A workload's `setup` makes its inputs from the benchmark seed; `run` does one
round of the work a user waits for, artifacts written, into a fresh
directory; `check` tests that round's outputs with `checks`. A round is always
the same amount of work, so `samples` (training samples stepped through
forward, backward and Adam) is a constant of the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from featgroups import cli, synthdata, trainer

TABLE1 = synthdata.GpSpec()  # 10000 series x 20 steps x 6 features, corpus seed 0
TABLE1_GROUPS = trainer.ExperimentConfig().groups


@dataclass
class Round:
    """What one round hands to its check."""

    out: Path
    failed: bool = False
    error: str = ""
    result: object = None


def _train_split_size(samples: int, val_fraction: float) -> int:
    return samples - max(1, int(round(samples * val_fraction)))


class Training:
    """A round is one `trainer.train` call per config, each for a fixed epoch
    count (patience equals the epoch count, so early stopping never ends a
    run), with the run's artifacts written. Inputs are (dataset, configs)."""

    def samples(self, inputs) -> int:
        dataset, configs = inputs
        return sum(c.epochs * _train_split_size(dataset.series.shape[0], c.val_fraction) for c in configs)

    def prepare(self, inputs, out: Path):
        out.mkdir(parents=True)

    def run(self, inputs, out: Path) -> Round:
        dataset, configs = inputs
        results = []
        for config in configs:
            results.append(trainer.train(config, dataset))
            run_dir = out / f"seed_{config.seed}"
            run_dir.mkdir()
            cli.write_run_artifacts(results[-1], config, run_dir)
        return Round(out=out, result=results)

    def check(self, inputs, done: Round) -> list[str]:
        dataset, configs = inputs
        problems = []
        for config, result in zip(configs, done.result):
            points = checks.unified_points(result.model.feature_weight_arrays())
            found = checks.finite_losses(result.history) + self.check_run(dataset, config, result, points)
            problems += [f"seed {config.seed}: {p}" for p in found]
        return problems


class PaperShape(Training):
    """Criterion 1's loop: the Table-1 corpus, the default config (K-means,
    reclustering every epoch, batch 5000), 10 epochs. The benchmark seed is
    the training seed."""

    name = "paper_shape"
    epochs = 10

    def setup(self, seed: int, staging: Path):
        dataset = synthdata.generate_dataset(TABLE1)
        return dataset, [trainer.ExperimentConfig(seed=seed, epochs=self.epochs, patience=self.epochs)]

    def check_run(self, dataset, config, result, points) -> list[str]:
        train_labels, val_labels = checks.validation_labels(dataset.labels, config.seed, config.val_fraction)
        return checks.no_worse_than_prior(
            result.metrics["val_loss"], train_labels, val_labels
        ) + checks.lloyd_fixed_point(points, result.cluster_state.centroids, result.membership)


class WideGmm(Training):
    """The paper's feature count: 240 features of 8 steps, batches of 300, a
    full-covariance GMM reclustered after every batch. Features 0-5 are the
    Table-1 features; the others draw their length scales and amplitudes from
    fixed cycles and never touch the label, so the truth puts them in one group
    with features 4 and 5.

    How many EM iterations a reclustering takes depends on the trajectory of
    the weights, and so on the seeds. A round therefore trains one epoch from
    each of three training seeds (3·seed to 3·seed + 2) instead of three
    epochs from one. At 120 features the iterations per round still differed
    by about 10% between seeds; at 240 most EM runs come near the iteration
    cap and they differ by about 6%."""

    name = "wide_gmm"
    features = 240
    trajectories = 3

    def spec(self, seed: int) -> synthdata.GpSpec:
        scales = [TABLE1.length_scales[f] if f < 6 else (1.0, 2.0, 4.0, 8.0)[f % 4] for f in range(self.features)]
        amplitudes = [TABLE1.amplitudes[f] if f < 6 else (0.5, 1.0, 2.0)[f % 3] for f in range(self.features)]
        return synthdata.GpSpec(
            features=self.features, length=8, samples=1000, length_scales=scales, amplitudes=amplitudes, seed=seed
        )

    def setup(self, seed: int, staging: Path):
        dataset = synthdata.generate_dataset(self.spec(seed))
        dataset.truth_groups = [[0, 1], [2, 3], list(range(4, self.features))]
        configs = [
            trainer.ExperimentConfig(
                seed=self.trajectories * seed + j,
                epochs=1,
                patience=1,
                batch_size=300,
                algorithm="gmm",
                covariance_type="full",
                recluster_unit="batch",
            )
            for j in range(self.trajectories)
        ]
        return dataset, configs

    def check_run(self, dataset, config, result, points) -> list[str]:
        state = result.cluster_state
        return checks.gmm_state(points, state.centroids, state.covariances, state.weights, result.membership)


class TableCli:
    """`featgroups benchmark` on the Table-1 corpus: every variant for two
    seeds (the benchmark seed and the next), one epoch each, into a fresh
    output directory that holds only the dataset files `featgroups generate`
    wrote during set-up."""

    name = "table_cli"
    epochs = 1
    trained_variants = ("random", "oracle", "dynamic")

    def setup(self, seed: int, staging: Path):
        staging.mkdir(parents=True, exist_ok=True)
        config_path = staging / "config.json"
        config_path.write_text(json.dumps({"train": {"epochs": self.epochs}}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["generate", "--config", str(config_path), "--out", str(staging)])
        if code != 0:
            raise RuntimeError(f"featgroups generate exited {code}")
        return staging, config_path, [seed, seed + 1]

    def samples(self, inputs) -> int:
        return len(self.trained_variants) * len(inputs[2]) * self.epochs * _train_split_size(TABLE1.samples, 0.1)

    def prepare(self, inputs, out: Path):
        staging = inputs[0]
        out.mkdir(parents=True)
        for name in ("dataset.bin", "dataset.json"):
            shutil.copyfile(staging / name, out / name)

    def run(self, inputs, out: Path) -> Round:
        _, config_path, seeds = inputs
        argv = ["benchmark", "--config", str(config_path), "--out", str(out), "--seeds", ",".join(map(str, seeds))]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return Round(out=out, failed=code != 0, error=stderr.getvalue().strip())

    def check(self, inputs, done: Round) -> list[str]:
        _, _, seeds = inputs
        dataset = synthdata.load_dataset(done.out / "dataset.bin", done.out / "dataset.json")
        problems = checks.benchmark_outputs(
            done.out, np.asarray(dataset.truth_labels), seeds, TABLE1_GROUPS, cli.BENCHMARK_VARIANTS
        )
        for variant in self.trained_variants:
            for seed in seeds:
                problems += checks.checkpoint_reproduces(done.out / variant / f"seed_{seed}", dataset)
        return problems


WORKLOADS = {w.name: w for w in (PaperShape(), WideGmm(), TableCli())}
