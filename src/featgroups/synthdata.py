"""Synthetic benchmark with known ground-truth feature groups.

Each feature of the multivariate series is an independent draw from a
Gaussian process with an RBF kernel and its own length scale and amplitude.
Labels come from the feature products of the first two ground-truth pairs:
per sample, the products are summed over time, thresholded at the dataset
median, and combined with a logical AND. The remaining features never touch
the label, which is exactly what makes them a group of their own.

The static baselines flatten or average the series into one vector per
feature (label values appended) and run plain K-means on those vectors.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .clustering import converge, hard_membership, init_kmeanspp, score_points
from .serialization import atomic_write, read_tensors, write_tensors

STATIC_MODES = ("flat", "time_mean", "sample_mean", "full_mean")

DATASET_SCHEMA = "featgroups-dataset-v1"


@dataclass
class GpSpec:
    """Generator settings; defaults reproduce the benchmark corpus."""

    features: int = 6
    length: int = 20
    samples: int = 10000
    length_scales: tuple = (1.0, 2.0, 4.0, 8.0, 1.0, 2.0)
    amplitudes: tuple = (0.5, 1.0, 3.5, 0.5, 0.5, 0.5)
    seed: int = 0

    def __post_init__(self):
        for name in ("features", "length", "samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be of type int, got {value!r}")
        for name, low in (("length", 1), ("samples", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("length_scales", "amplitudes"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values
            ):
                raise ValueError(f"{name} must be a list of numbers, got {values!r}")
            setattr(self, name, tuple(float(v) for v in values))
        if len(self.length_scales) != self.features or len(self.amplitudes) != self.features:
            raise ValueError("length_scales and amplitudes must list one value per feature")
        if any(v <= 0 for v in self.length_scales) or any(v <= 0 for v in self.amplitudes):
            raise ValueError("length scales and amplitudes must be positive")
        if self.features < 4:
            raise ValueError("labeling needs at least 4 features")


@dataclass
class LabeledDataset:
    series: np.ndarray  # (N, T, F)
    labels: np.ndarray  # (N,), 0/1
    thresholds: tuple  # (kappa_12, kappa_34)
    truth_groups: list = field(default_factory=lambda: [[0, 1], [2, 3], [4, 5]])
    spec: GpSpec | None = None

    @property
    def truth_labels(self) -> np.ndarray:
        """Ground-truth group id per feature; the truth groups must partition
        the features."""
        n = self.series.shape[2]
        problem = _partition_problem(self.truth_groups, n)
        if problem:
            raise ValueError(problem)
        out = np.empty(n, dtype=np.int64)
        for gid, group in enumerate(self.truth_groups):
            out[group] = gid
        return out


def _partition_problem(truth_groups, n: int) -> str | None:
    """What keeps `truth_groups` from partitioning feature ids 0..n-1, if
    anything."""
    members = [f for group in truth_groups for f in group]
    if not all(isinstance(f, numbers.Integral) and not isinstance(f, bool) for f in members):
        return f"truth_groups must list features by int id, got {truth_groups!r}"
    members.sort()
    if members == list(range(n)):
        return None
    missing = sorted(set(range(n)) - set(members))
    repeated = sorted({f for f in members if members.count(f) > 1})
    outside = sorted(set(members) - set(range(n)))
    return (
        f"truth_groups must partition the {n} features: missing {missing},"
        f" repeated {repeated}, out of range {outside}"
    )


def rbf_kernel(length: int, scale: float, amplitude: float) -> np.ndarray:
    grid = np.arange(length, dtype=np.float64)
    gaps = grid[:, None] - grid[None, :]
    return amplitude**2 * np.exp(-(gaps**2) / (2.0 * scale**2))


def sample_gp(spec: GpSpec) -> np.ndarray:
    """Draw (samples, length, features): independent GP paths per feature."""
    rng = np.random.default_rng(spec.seed)
    series = np.empty((spec.samples, spec.length, spec.features))
    for f in range(spec.features):
        kernel = rbf_kernel(spec.length, spec.length_scales[f], spec.amplitudes[f])
        kernel[np.diag_indices_from(kernel)] += 1e-9
        try:
            chol = np.linalg.cholesky(kernel)
        except np.linalg.LinAlgError:
            raise ValueError(f"feature {f}: RBF kernel not positive definite despite jitter") from None
        series[:, :, f] = rng.standard_normal((spec.samples, spec.length)) @ chol.T
    return series


def lower_median(values: np.ndarray) -> float:
    """Median that is always an element of the sample (the lower one when the
    count is even), so strictly-greater splits an even count exactly in half."""
    ordered = np.sort(np.asarray(values))
    return float(ordered[(ordered.size - 1) // 2])


def assign_labels(series: np.ndarray, spec: GpSpec | None = None) -> LabeledDataset:
    """Label = (sum_t x1*x2 > median) AND (sum_t x3*x4 > median).

    The truth groups are the two label pairs plus, when there are more than
    four features, one group holding every distractor."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 3 or series.shape[2] < 4:
        raise ValueError(f"series must be (N, T, F>=4), got {series.shape}")
    sum_12 = (series[:, :, 0] * series[:, :, 1]).sum(axis=1)
    sum_34 = (series[:, :, 2] * series[:, :, 3]).sum(axis=1)
    kappa_12 = lower_median(sum_12)
    kappa_34 = lower_median(sum_34)
    labels = ((sum_12 > kappa_12) & (sum_34 > kappa_34)).astype(np.int64)
    groups = [[0, 1], [2, 3], list(range(4, series.shape[2]))]
    return LabeledDataset(
        series=series,
        labels=labels,
        thresholds=(kappa_12, kappa_34),
        truth_groups=[g for g in groups if g],
        spec=spec,
    )


def generate_dataset(spec: GpSpec) -> LabeledDataset:
    return assign_labels(sample_gp(spec), spec)


# ----------------------------------------------------------------------
# static-clustering inputs
# ----------------------------------------------------------------------


def static_transform(dataset: LabeledDataset, mode: str) -> np.ndarray:
    """Build one vector per feature for the static K-means baselines.

    flat          per sample: its T feature values then its label  -> N(T+1)
    time_mean     per sample: its time average then its label      -> 2N
    sample_mean   per step: the sample average; label mean appended -> T+1
    full_mean     the global average; label mean appended           -> 2

    Where the sample axis is averaged away the per-sample labels collapse to
    their mean; where samples are concatenated each block carries its label.
    """
    if mode not in STATIC_MODES:
        raise ValueError(f"unknown static transform {mode!r}, expected one of {STATIC_MODES}")
    x = dataset.series
    y = dataset.labels.astype(np.float64)
    n, t, f = x.shape
    if mode == "flat":
        blocks = np.concatenate([x, y[:, None, None] * np.ones((n, 1, f))], axis=1)  # (N, T+1, F)
        out = blocks.transpose(2, 0, 1)
    elif mode == "time_mean":
        means = x.mean(axis=1)  # (N, F)
        blocks = np.stack([means, y[:, None] * np.ones((n, f))], axis=2)  # (N, F, 2)
        out = blocks.transpose(1, 0, 2)
    elif mode == "sample_mean":
        means = x.mean(axis=0).T  # (F, T)
        out = np.concatenate([means, np.full((f, 1), y.mean())], axis=1)
    else:
        out = np.stack([x.mean(axis=(0, 1)), np.full(f, y.mean())], axis=1)  # (F, 2)
    # a transposed view would make every later pass over the vectors stride
    return np.ascontiguousarray(out).reshape(f, -1)


def static_kmeans_baseline(
    dataset: LabeledDataset, mode: str, k: int, seed: int
) -> np.ndarray:
    """k-means++-seeded Lloyd's to convergence on the static feature vectors.

    Guards against K above the ground-truth group count, where comparisons
    with the 3-group truth degenerate.
    """
    if k > len(dataset.truth_groups):
        raise ValueError(
            f"K={k} exceeds the {len(dataset.truth_groups)} ground-truth groups; "
            "the benchmark comparison would be degenerate"
        )
    vectors = static_transform(dataset, mode)
    state = converge(vectors, init_kmeanspp(vectors, k, np.random.default_rng(seed)))
    return hard_membership(score_points(vectors, state))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def save_dataset(dataset: LabeledDataset, binary_path, sidecar_path):
    write_tensors(binary_path, {"series": dataset.series, "labels": dataset.labels.astype(np.float64)})
    spec = dataset.spec
    sidecar = {
        "schema": DATASET_SCHEMA,
        "binary_format": "FGT1 named tensors: series (N,T,F), labels (N,)",
        "samples": int(dataset.series.shape[0]),
        "length": int(dataset.series.shape[1]),
        "features": int(dataset.series.shape[2]),
        "thresholds": {"kappa_12": dataset.thresholds[0], "kappa_34": dataset.thresholds[1]},
        "truth_groups": dataset.truth_groups,
        "positive_rate": float(dataset.labels.mean()),
        "generator": None
        if spec is None
        else {
            "length_scales": list(spec.length_scales),
            "amplitudes": list(spec.amplitudes),
            "seed": spec.seed,
        },
    }
    with atomic_write(sidecar_path) as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_dataset(tensors: dict, sidecar: dict, binary_path, sidecar_path):
    """Reject a dataset whose tensors are malformed or disagree with their
    sidecar, naming the file and the offending sample, step and feature."""
    for name in ("series", "labels"):
        if name not in tensors:
            raise ValueError(f"{binary_path}: no tensor {name!r}")
    series, labels = tensors["series"], tensors["labels"]
    if series.ndim != 3:
        raise ValueError(f"{binary_path}: series must be (samples, length, features), got shape {series.shape}")
    bad = np.argwhere(~np.isfinite(series))
    if bad.size:
        i, t, f = bad[0]
        raise ValueError(f"{binary_path}: series[{i}, {t}, {f}] is {series[i, t, f]}")
    if labels.shape != series.shape[:1]:
        raise ValueError(f"{binary_path}: labels has shape {labels.shape}, expected ({series.shape[0]},)")
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ValueError(f"{binary_path}: labels[{bad[0]}] is {labels[bad[0]]}, expected 0 or 1")
    for axis, key in enumerate(("samples", "length", "features")):
        if sidecar.get(key) != series.shape[axis]:
            raise ValueError(
                f"{sidecar_path}: {key} is {sidecar.get(key)!r}, but {binary_path} holds series of shape {series.shape}"
            )
    thresholds = sidecar.get("thresholds")
    if not isinstance(thresholds, dict) or not {"kappa_12", "kappa_34"} <= set(thresholds):
        raise ValueError(f"{sidecar_path}: thresholds must map kappa_12 and kappa_34, got {thresholds!r}")
    groups = sidecar.get("truth_groups")
    if not isinstance(groups, list) or not all(isinstance(group, list) for group in groups):
        raise ValueError(f"{sidecar_path}: truth_groups must be a list of feature lists, got {groups!r}")
    problem = _partition_problem(groups, series.shape[2]) if groups else None
    if problem:
        raise ValueError(f"{sidecar_path}: {problem}")


def load_dataset(binary_path, sidecar_path) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset`, checking its shapes,
    values and sidecar."""
    tensors = read_tensors(binary_path)
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar_path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(sidecar, dict):
        raise ValueError(f"{sidecar_path}: top level must be a JSON object")
    if sidecar.get("schema") != DATASET_SCHEMA:
        raise ValueError(f"{sidecar_path}: unexpected schema {sidecar.get('schema')!r}")
    _check_dataset(tensors, sidecar, binary_path, sidecar_path)
    generator = sidecar.get("generator")
    spec = None
    if generator is not None:
        spec = GpSpec(
            features=sidecar["features"],
            length=sidecar["length"],
            samples=sidecar["samples"],
            length_scales=tuple(generator["length_scales"]),
            amplitudes=tuple(generator["amplitudes"]),
            seed=generator["seed"],
        )
    return LabeledDataset(
        series=tensors["series"],
        labels=tensors["labels"].astype(np.int64),
        thresholds=(sidecar["thresholds"]["kappa_12"], sidecar["thresholds"]["kappa_34"]),
        truth_groups=[list(g) for g in sidecar["truth_groups"]],
        spec=spec,
    )


def export_csv(dataset: LabeledDataset, path):
    """Row-per-timestep CSV for eyeballing the generated series."""
    n, t, f = dataset.series.shape
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# schema", DATASET_SCHEMA])
        writer.writerow(["sample", "step"] + [f"x{j}" for j in range(f)] + ["label"])
        for i in range(n):
            for step in range(t):
                row = [i, step] + [repr(v) for v in dataset.series[i, step]] + [int(dataset.labels[i])]
                writer.writerow(row)
