"""Correctness checks on the outputs of each workload.

Every check returns a list of problems; an empty list means the output passed.
The checks recompute what they compare against in their own numpy (the split
rule, unification, Lloyd's fixed point, a Gaussian log-density, a pair-counting
ARI) or test a property the method must have. None compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

# A float that went through the same arithmetic twice agrees to rounding;
# these bound "the same" for the recomputations below.
CENTROID_RTOL = 1e-9
SYMMETRY_RTOL = 1e-10
WEIGHT_SUM_TOL = 1e-12


def unified_points(feature_weights) -> np.ndarray:
    """Each feature's [bias ‖ sum of weight rows] vector, the layout the
    default combine mode clusters. A weight matrix holds C_f weight rows and
    one bias row."""
    return np.stack([np.concatenate([w[-1], w[:-1].sum(axis=0)]) for w in feature_weights])


def validation_labels(labels: np.ndarray, seed: int, val_fraction: float):
    """(train labels, validation labels) under the documented split rule: a
    permutation from ``default_rng([seed, 3])``, validation first."""
    order = np.random.default_rng([seed, 3]).permutation(labels.size)
    n_val = max(1, int(round(labels.size * val_fraction)))
    return labels[order[n_val:]], labels[order[:n_val]]


def prior_loss(train_labels: np.ndarray, val_labels: np.ndarray) -> tuple[float, float]:
    """Mean BCE on the validation labels of the constant predictor that says
    the training split's positive rate, and the standard error of that mean."""
    rate = float(np.mean(train_labels))
    per_sample = -(val_labels * math.log(rate) + (1 - val_labels) * math.log(1 - rate))
    return float(per_sample.mean()), float(per_sample.std() / math.sqrt(per_sample.size))


def finite_losses(history) -> list[str]:
    problems = []
    for record in history:
        for key in ("train_loss", "val_loss"):
            if not math.isfinite(getattr(record, key)):
                problems.append(f"epoch {record.epoch}: {key} is {getattr(record, key)}")
    if not history:
        problems.append("no epoch was recorded")
    return problems


def no_worse_than_prior(val_loss: float, train_labels, val_labels) -> list[str]:
    """The best checkpoint's validation loss is at most the class-prior
    predictor's loss plus its standard error. The model starts at the prior,
    so only a broken training run ends above it. (Beating the prior by a
    standard error cannot be asked of a fixed epoch count: the prior plateau
    lasts 28 to more than 80 epochs, depending on the seed.)"""
    loss, stderr = prior_loss(np.asarray(train_labels, float), np.asarray(val_labels, float))
    if not val_loss <= loss + stderr:
        return [f"validation loss {val_loss:.4f} is worse than the class prior {loss:.4f} + {stderr:.4f}"]
    return []


def lloyd_fixed_point(points: np.ndarray, centroids: np.ndarray, membership: np.ndarray) -> list[str]:
    """A converged K-means partition: every point is nearest its own centroid
    and every centroid is the mean of its members."""
    problems = []
    assign = np.asarray(membership).argmax(axis=1)
    if not np.array_equal(np.asarray(membership).sum(axis=1), np.ones(points.shape[0])):
        problems.append("membership is not one group per feature")
    dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    own = dist2[np.arange(points.shape[0]), assign]
    closer = np.flatnonzero(dist2.min(axis=1) < own)
    if closer.size:
        problems.append(f"features {closer.tolist()} lie nearer another centroid than their own")
    scale = max(1.0, float(np.abs(points).max()))
    for k in range(centroids.shape[0]):
        members = points[assign == k]
        if members.shape[0] == 0:
            problems.append(f"cluster {k} is empty")
            continue
        gap = float(np.abs(members.mean(axis=0) - centroids[k]).max())
        if gap > CENTROID_RTOL * scale:
            problems.append(f"centroid {k} is {gap:.3g} away from the mean of its members")
    return problems


def gaussian_log_density(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(x | mean, cov) for every row of ``points``, by eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    projected = (points - mean) @ vecs
    mahalanobis = (projected**2 / vals).sum(axis=1)
    return -0.5 * (mahalanobis + np.log(vals).sum() + points.shape[1] * math.log(2 * math.pi))


def gmm_state(points: np.ndarray, means, covariances, weights, membership) -> list[str]:
    """Full-covariance mixture: weights sum to 1, covariances are symmetric
    positive definite, and the hard membership is the argmax of the
    responsibilities."""
    problems = []
    weights = np.asarray(weights, float)
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL or (weights <= 0).any():
        problems.append(f"mixture weights {weights.tolist()} do not form a distribution")
    covariances = np.asarray(covariances, float)
    for k, cov in enumerate(covariances):
        if not np.allclose(cov, cov.T, rtol=SYMMETRY_RTOL, atol=0.0):
            problems.append(f"covariance {k} is not symmetric")
            continue
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            problems.append(f"covariance {k} is not positive definite")
    if problems:
        return problems
    log_post = np.stack(
        [math.log(w) + gaussian_log_density(points, m, c) for w, m, c in zip(weights, means, covariances)],
        axis=1,
    )
    expected = log_post.argmax(axis=1)
    actual = np.asarray(membership).argmax(axis=1)
    if not np.array_equal(np.asarray(membership).sum(axis=1), np.ones(points.shape[0])):
        problems.append("membership is not one group per feature")
    wrong = np.flatnonzero(expected != actual)
    if wrong.size:
        problems.append(f"features {wrong.tolist()} are not in their most responsible component")
    return problems


def pair_counting_ari(truth, predicted) -> float:
    """Adjusted Rand index by counting pairs one by one (Hubert and Arabie 1985)."""
    truth, predicted = list(truth), list(predicted)
    pairs = list(combinations(range(len(truth)), 2))
    same_t = [truth[i] == truth[j] for i, j in pairs]
    same_p = [predicted[i] == predicted[j] for i, j in pairs]
    both = sum(a and b for a, b in zip(same_t, same_p))
    expected = sum(same_t) * sum(same_p) / len(pairs)
    top = 0.5 * (sum(same_t) + sum(same_p))
    if top == expected:
        return 1.0
    return (both - expected) / (top - expected)


def read_table(path: Path) -> dict[str, dict]:
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return {row["variant"]: row for row in csv.DictReader(rows)}


def benchmark_outputs(out: Path, truth: np.ndarray, seeds: list[int], groups: int, variants) -> list[str]:
    """The `benchmark` command's table and manifest: every row OK, no cell
    error, the oracle exact, and the random variant's ARI equal to a
    pair-counting ARI of the assignment its documented rule draws,
    ``default_rng([seed, 99]).integers(0, K, F)``."""
    problems = []
    table = read_table(out / "benchmark.csv")
    for variant in variants:
        row = table.get(variant)
        if row is None or row["status"] != "OK":
            problems.append(f"row {variant}: {None if row is None else row['status']}")
    manifest = json.loads((out / "manifest.json").read_text())
    for run in manifest["runs"]:
        if run["error"]:
            problems.append(f"cell {run['variant']} seed {run['seed']}: {run['error']}")
    oracle = table.get("oracle", {})
    for key in ("ari_mean", "ari_std", "nmi_mean", "nmi_std"):
        want = 0.0 if key.endswith("std") else 1.0
        if oracle.get(key) in (None, "") or float(oracle[key]) != want:
            problems.append(f"oracle {key} is {oracle.get(key)}, not {want}")
    expected = []
    for seed in seeds:
        drawn = np.random.default_rng([seed, 99]).integers(0, groups, size=truth.size)
        want = pair_counting_ari(truth.tolist(), drawn.tolist())
        expected.append(want)
        results = json.loads((out / "random" / f"seed_{seed}" / "results.json").read_text())
        if results["partition"] != drawn.tolist():
            problems.append(f"random seed {seed}: partition {results['partition']} is not {drawn.tolist()}")
        if abs(results["metrics"]["ari"] - want) > 1e-12:
            problems.append(f"random seed {seed}: ARI {results['metrics']['ari']} != pair count {want}")
    random_row = table.get("random", {})
    # the table prints means to 6 decimals
    if random_row.get("ari_mean") in (None, "") or abs(float(random_row["ari_mean"]) - np.mean(expected)) > 5e-7:
        problems.append(f"random ari_mean {random_row.get('ari_mean')} != {np.mean(expected):.6f}")
    return problems


def checkpoint_reproduces(run_dir: Path, dataset) -> list[str]:
    """Read `checkpoint.bin` back, load it into a fresh model, evaluate it on
    the run's validation split and compare with `results.json`, exactly."""
    from featgroups.model import GroupedStepwiseModel, ModelConfig
    from featgroups.serialization import read_checkpoint
    from featgroups.trainer import ExperimentConfig, evaluate

    results = json.loads((run_dir / "results.json").read_text())
    config = ExperimentConfig.from_dict(results["config"])
    model_state, cluster_state = read_checkpoint(run_dir / "checkpoint.bin")
    model = GroupedStepwiseModel(
        ModelConfig(
            feature_cards=[1] * dataset.series.shape[2],
            hidden=config.hidden,
            groups=config.groups,
            agg_mode=config.agg_mode,
            psi=config.psi,
            seq_width=config.seq_width,
            seq_heads=config.seq_heads,
            positional_encoding=config.positional_encoding,
            feature_init=config.feature_init,
        ),
        np.random.default_rng(0),
    )
    model.load_state_dict(model_state)
    metrics = evaluate(
        model,
        cluster_state,
        cluster_state.membership,
        dataset,
        config,
        model_state["input_norm/mean"],
        model_state["input_norm/std"],
    )
    problems = []
    if metrics["partition"] != results["partition"]:
        problems.append(f"{run_dir}: partition {metrics['partition']} != {results['partition']}")
    for key, value in results["metrics"].items():
        if metrics[key] != value:
            problems.append(f"{run_dir}: re-evaluated {key} {metrics[key]!r} != {value!r}")
    return problems
