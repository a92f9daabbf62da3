"""Joint supervised training with interleaved feature reclustering.

Per batch: the gradients are cleared, the weighted cluster-shape regularizer
(which depends only on the weights) runs one backward of its own, and then the
batch runs as consecutive chunks of `chunk_rows` rows, each a forward pass
under the current membership matrix and a backward pass. The chunk size keeps
a chunk's per-feature activation (rows x steps x features x hidden) within
`CHUNK_VALUES` values: 500 rows at the paper's 20 steps x 6 features x 6
hidden, 31 rows at 8 steps x 240 features x 6, so the memory a pass needs does
not grow with the feature count. A chunk's supervised loss is weighted by its
share of the batch (exactly 1 for a batch that fits in one chunk), and every
backward adds to the parameters' gradients, so the step is the full-batch step
up to rounding. Then one Adam step, which reads the summed gradients from the
parameters themselves. The validation pass runs in the same chunks.
After the optimizer step the feature weights are re-unified and reclustered
on the configured cadence: each reclustering runs the clustering to
convergence from the previous centroids and from k-means++ restarts seeded by
the run's seed, all converged together as one stacked batch, keeps the best
run with cluster ids matched to the previous ones, and EMA-damps centroid
motion whenever the membership flips. The state the trainer keeps, and
checkpoints, is always that single best run, and its `membership` is the
trainer's only record of the grouping: the forward passes, the hard
regularizer, the history and the returned result all read it from there.

The output bias starts at the log-odds of the training split's positive rate.
Early stopping watches the validation supervised loss; its patience starts
counting once that loss beats the constant class-prior predictor by more than
the predictor's standard error on the validation split, or after a tenth of
the epoch budget. A run that finishes ends in one place: the best-validation
snapshot, not the last epoch's, is loaded into the trained model with every
gradient cleared, and the run's metrics are that epoch's validation report
(`_validate`, once per epoch); `evaluate` rebuilds the same report from a
checkpoint. A non-finite training or validation loss instead raises
`TrainingDiverged`, carrying where it happened and the loss, and no model.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import AdamState, adam_step, stack
from .clustering import (
    ALGORITHMS,
    COVARIANCE_TYPES,
    REG_VARIANTS,
    ClusterState,
    ReclusterOptions,
    init_kmeanspp,
    init_prior,
    membership_from_scores,
    recluster,
    reg_basis,
    reg_loss,
    score_points,
    unify,
)
from .metrics import ari, auprc, auroc, nmi, silhouette
from .model import GroupedStepwiseModel, ModelConfig, ModelSettings, supervised_loss
from .synthdata import LabeledDataset

RESULTS_SCHEMA = "featgroups-results-v1"
HISTORY_SCHEMA = "featgroups-history-v1"

# values in one chunk's per-feature activation (rows x steps x features x
# hidden), in training and validation alike: exactly a 500-row chunk at the
# paper's 20 x 6 x 6, ~3 MB of float64 per activation where the paper's batch
# of 5000 would be ~29 MB
CHUNK_VALUES = 360_000


@dataclass
class ExperimentConfig(ModelSettings, ReclusterOptions):
    """Everything one training run depends on; JSON-round-trippable. The
    model's and the reclustering's settings are inherited, with their checks."""

    seed: int = 0
    val_fraction: float = 0.1
    # optimization
    lr: float = 0.002
    epochs: int = 1000
    batch_size: int = 5000
    patience: int = 10
    # grouping
    grouping: str = "dynamic"  # dynamic | fixed
    fixed_groups: list | None = None  # per-feature cluster ids when fixed
    algorithm: str = "kmeans"  # kmeans | fuzzy | gmm
    init: str = "kmeanspp"  # kmeanspp | prior
    prior_groups: list | None = None  # per-feature cluster ids
    fuzzifier: float = 2.0
    covariance_type: str = "full"
    reg_weight: float = 0.0
    reg_variant: str = "hard"
    recluster_every: int = 1
    recluster_unit: str = "epoch"  # epoch | batch | never
    standardize: bool = True  # z-score features with train-split statistics

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            kind = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}.get(field.type)
            # a bool passes only a bool field, and a bool field takes only a bool
            if kind and (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)):
                raise ValueError(f"{field.name} must be of type {field.type}, got {value!r}")
        ModelSettings.__post_init__(self)
        ReclusterOptions.__post_init__(self)
        for name, allowed in (
            ("grouping", ("dynamic", "fixed")),
            ("algorithm", ALGORITHMS),
            ("init", ("kmeanspp", "prior")),
            ("recluster_unit", ("epoch", "batch", "never")),
            ("covariance_type", COVARIANCE_TYPES),
            ("reg_variant", REG_VARIANTS),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not 0.0 <= self.reg_weight < 1.0:
            raise ValueError(f"reg_weight must be in [0, 1), got {self.reg_weight}")
        for name, low in (("seed", 0), ("batch_size", 1), ("epochs", 1), ("patience", 0), ("recluster_every", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name, low in (("lr", 0.0), ("fuzzifier", 1.0)):
            if not getattr(self, name) > low:
                raise ValueError(f"{name} must be > {low}, got {getattr(self, name)}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        name = self.given_grouping
        if name is not None:
            ids = getattr(self, name)
            if ids is None:
                raise ValueError(f"grouping {self.grouping!r} with init {self.init!r} needs {name}")
            if not isinstance(ids, list) or not all(
                isinstance(g, numbers.Integral) and not isinstance(g, bool) and 0 <= g < self.groups for g in ids
            ):
                raise ValueError(f"{name} must be a list of ints in [0, {self.groups}), got {ids!r}")
            if name == "prior_groups" and set(ids) != set(range(self.groups)):
                raise ValueError(f"prior_groups must use every group id in [0, {self.groups}), got {ids!r}")

    @property
    def given_grouping(self) -> str | None:
        """The field holding the one given grouping the run reads, if any:
        its fixed groups, or the prior its dynamic grouping starts from."""
        if self.grouping == "fixed":
            return "fixed_groups"
        return "prior_groups" if self.init == "prior" else None

    def model_config(self, features: int) -> ModelConfig:
        """The model this run trains on `features` numerical features."""
        settings = {f.name: getattr(self, f.name) for f in fields(ModelSettings)}
        return ModelConfig(feature_cards=[1] * features, **settings)

    def check_features(self, features: int):
        """Check the run against a dataset of `features` features: a dynamic
        grouping clusters them into at most `features` groups (a fixed one may
        leave groups empty), and the given grouping lists one id per feature."""
        if self.grouping == "dynamic" and self.groups > features:
            raise ValueError(f"groups {self.groups} exceeds the dataset's {features} features")
        name = self.given_grouping
        if name is not None and len(getattr(self, name)) != features:
            raise ValueError(
                f"{name} must list one group id for each of the dataset's {features} features,"
                f" got {getattr(self, name)!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    reg_loss: float
    val_loss: float
    membership: list  # (F, K) 0/1
    centroids: list
    ari: float | None
    nmi: float | None
    silhouette: float | None

    def to_json(self) -> str:
        payload = {"schema": HISTORY_SCHEMA, **asdict(self)}
        return json.dumps(payload, sort_keys=True)


@dataclass
class TrainResult:
    """The best-validation checkpoint of a run: its model, and its clustering
    state, whose ``membership`` is the grouping that model was trained and
    scored under, plus the run's per-epoch history and, as its metrics, the
    best epoch's validation report."""

    model: GroupedStepwiseModel
    cluster_state: ClusterState
    history: list  # EpochRecord
    best_epoch: int
    metrics: dict
    norm_mean: np.ndarray
    norm_std: np.ndarray

    @property
    def membership(self) -> np.ndarray:
        """The checkpoint's (F, K) membership matrix, read from its state."""
        return self.cluster_state.membership


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; `info` holds the epoch, the step and the
    offending loss values."""

    def __init__(self, message: str, info: dict):
        super().__init__(message)
        self.info = info


def _groups_to_matrix(assignment, k: int) -> np.ndarray:
    assignment = np.asarray(assignment, dtype=np.int64)
    member = np.zeros((assignment.size, k))
    member[np.arange(assignment.size), assignment] = 1.0
    return member


def _split_indices(n: int, val_fraction: float, rng: np.random.Generator):
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    return order[n_val:], order[:n_val]


def chunk_rows(steps: int, features: int, hidden: int) -> int:
    """Rows per forward/backward pass for inputs of `steps` x `features` at
    `hidden` units: as many as `CHUNK_VALUES` allows, and never fewer than 1."""
    return max(1, CHUNK_VALUES // (steps * features * hidden))


def _batched_logits(model: GroupedStepwiseModel, x, membership) -> np.ndarray:
    out = np.empty(x.shape[0])
    size = chunk_rows(x.shape[1], x.shape[2], model.config.hidden)
    for start in range(0, x.shape[0], size):
        stop = start + size
        out[start:stop] = model.forward(x[start:stop], membership).data
    return out


def _validate(model, state: ClusterState, membership, x_val, labels, dataset, config) -> dict:
    """The validation report of `model` under `membership`: loss, AUROC and
    AUPRC on the standardized series `x_val` and its 0/1 float `labels`, and
    the partition of the feature weights with its ARI, NMI and silhouette."""
    # AUROC and AUPRC depend only on the order of the scores, so they rank the
    # logits themselves: a sigmoid would overflow at large |z|
    z = _batched_logits(model, x_val, membership)
    points = unify(model.feature_weight_arrays(), config.combine_mode)
    if config.grouping == "fixed":
        # fixed groupings report the grouping actually used by the model
        partition = membership.argmax(axis=1)
    else:
        partition = score_points(points, state).argmax(axis=1)
    truth = dataset.truth_labels if dataset.truth_groups else None
    both_classes = 0 < labels.sum() < labels.size
    return {
        "auprc": auprc(z, labels) if both_classes else None,
        "auroc": auroc(z, labels) if both_classes else None,
        "ari": None if truth is None else ari(truth, partition),
        "nmi": None if truth is None else nmi(truth, partition),
        "silhouette": silhouette(points, partition) if len(np.unique(partition)) >= 2 else None,
        "partition": partition.tolist(),
        "val_loss": float(np.mean(np.maximum(z, 0.0) - z * labels + np.log1p(np.exp(-np.abs(z))))),
    }


def _init_clustering(config: ExperimentConfig, points, rng_init) -> ClusterState:
    """The run's initial clustering state, its membership set."""
    if config.grouping == "fixed":
        # fixed runs never recluster, so a centroid-only state suffices; an
        # empty fixed group (legal, e.g. random references) gets the global
        # mean as a placeholder centroid
        member = _groups_to_matrix(config.fixed_groups, config.groups)
        sizes = member.sum(axis=0)
        centroids = np.empty((config.groups, points.shape[1]))
        for k in range(config.groups):
            centroids[k] = points[member[:, k] > 0].mean(axis=0) if sizes[k] else points.mean(axis=0)
        return ClusterState(kind="kmeans", centroids=centroids, membership=member)
    algorithm = dict(kind=config.algorithm, fuzzifier=config.fuzzifier, covariance_type=config.covariance_type)
    if config.init == "prior":
        return init_prior(points, _groups_to_matrix(config.prior_groups, config.groups), **algorithm)
    state = init_kmeanspp(points, config.groups, rng_init, **algorithm)
    state.membership = membership_from_scores(score_points(points, state), config)
    return state


def train(config: ExperimentConfig, dataset: LabeledDataset) -> TrainResult:
    """Run the full training loop and return the best-validation checkpoint."""
    x, y = dataset.series, dataset.labels.astype(np.float64)
    if x.shape[0] < 2:
        raise ValueError("dataset must contain at least 2 samples")
    rng_model = np.random.default_rng([config.seed, 0])
    rng_batch = np.random.default_rng([config.seed, 1])
    rng_init = np.random.default_rng([config.seed, 2])
    rng_split = np.random.default_rng([config.seed, 3])
    rng_recluster = np.random.default_rng([config.seed, 4])

    train_idx, val_idx = _split_indices(x.shape[0], config.val_fraction, rng_split)
    if train_idx.size == 0:
        raise ValueError(
            f"{x.shape[0]} samples with val_fraction {config.val_fraction} leave no training samples"
        )
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    norm_mean = np.zeros(x.shape[2])
    norm_std = np.ones(x.shape[2])
    if config.standardize:
        norm_mean = x_train.mean(axis=(0, 1))
        norm_std = np.maximum(x_train.std(axis=(0, 1)), 1e-12)
        # the subtraction is out of place on purpose: it frees the raw
        # full-size copy. In a process that has already trained once,
        # in-place `-=` and `/=` made 5 paper-shape epochs take about 265,000
        # minor page faults, against under 150, and 20-50% longer (2 CPUs):
        # freeing a full-size array here seems to raise glibc's dynamic mmap
        # and trim thresholds, so the chunk activations stay on a reused
        # heap. In a fresh process the effect reverses, so no in-process test
        # can guard this. The division is in place, so two full-size copies
        # are alive at once, not three
        x_train = x_train - norm_mean
        x_train /= norm_std
        x_val = (x_val - norm_mean) / norm_std

    model = GroupedStepwiseModel(config.model_config(x.shape[2]), rng_model)
    # start the output at the class prior (Lin et al. 2017, sec. 4.1). The
    # classifier then needs tens of epochs to leave the prior plateau, where
    # the validation loss only jitters around the constant predictor's loss;
    # so patience counts once the model beats that loss by more than its
    # standard error, or once a tenth of the epoch budget is spent
    plateau_epochs = config.epochs // 10
    positive_rate = float(y_train.mean())
    plateau_val = np.inf
    if 0.0 < positive_rate < 1.0:
        prior_logit = np.log(positive_rate / (1.0 - positive_rate))
        model.seq_params["out_b"].data[:] = prior_logit
        prior_losses = np.logaddexp(0.0, prior_logit) - prior_logit * y_val
        plateau_val = prior_losses.mean() - prior_losses.std() / np.sqrt(y_val.size)
    params = model.parameters()
    adam = AdamState.for_params(params)

    points = unify(model.feature_weight_arrays(), config.combine_mode)
    state = _init_clustering(config, points, rng_init)
    dynamic = config.grouping == "dynamic" and config.recluster_unit != "never"
    chunk_size = chunk_rows(x.shape[1], x.shape[2], config.hidden)

    history: list[EpochRecord] = []
    best_val = np.inf
    stall = 0
    step = 0

    for epoch in range(config.epochs):
        order = rng_batch.permutation(x_train.shape[0])
        epoch_losses = []
        epoch_regs = []
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            # parameters of groups that are currently empty never enter the
            # graph; clearing every grad first leaves theirs None, so Adam
            # holds them and their moments still until the group fills again
            for p in params:
                p.grad = None
            reg_value = 0.0
            if config.reg_weight > 0.0:
                u = unify(stack(model.feature_weights), config.combine_mode)
                basis = state.membership if config.reg_variant == "hard" else reg_basis(u.data, state)
                reg, _ = reg_loss(u, basis, state.centroids, config.reg_variant)
                reg_value = reg.item()
                (config.reg_weight * reg).backward()
            loss_value = 0.0
            for chunk in range(0, batch.size, chunk_size):
                rows = batch[chunk : chunk + chunk_size]
                # `logits` and `loss` keep the previous chunk's tape alive
                # while this forward runs, on purpose. Freed before it, that
                # tape leaves the top of the heap empty, malloc hands it back
                # to the system, and every chunk page-faults its activations
                # in afresh: a paper-shape epoch then took 0.9-1.1 s instead
                # of 0.6-0.8 s on 2 CPUs
                logits = model.forward(x_train[rows], state.membership)
                loss = supervised_loss(logits, y_train[rows]) * (rows.size / batch.size)
                loss_value += loss.item()
                if not np.isfinite(loss_value) or not np.isfinite(reg_value):
                    info = {"epoch": epoch, "step": step, "train_loss": loss_value, "reg_loss": reg_value}
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch} step {step}", info)
                loss.backward()
            epoch_losses.append(loss_value)
            epoch_regs.append(reg_value)
            adam_step(params, adam, config.lr)
            step += 1
            if dynamic and config.recluster_unit == "batch" and step % config.recluster_every == 0:
                _, state = recluster(model.feature_weight_arrays(), state, config, rng_recluster)
        if dynamic and config.recluster_unit == "epoch" and (epoch + 1) % config.recluster_every == 0:
            _, state = recluster(model.feature_weight_arrays(), state, config, rng_recluster)

        metrics = _validate(model, state, state.membership, x_val, y_val, dataset, config)
        val_loss = metrics["val_loss"]
        if not np.isfinite(val_loss):
            info = {"epoch": epoch, "step": step, "val_loss": val_loss}
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}", info)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                reg_loss=float(np.mean(epoch_regs)),
                val_loss=val_loss,
                membership=state.membership.astype(int).tolist(),
                centroids=state.centroids.tolist(),
                ari=metrics["ari"],
                nmi=metrics["nmi"],
                silhouette=metrics["silhouette"],
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_snapshot = (model.state_dict(), state.copy())
            best_metrics = metrics
            stall = 0
        elif best_val < plateau_val or epoch >= plateau_epochs:
            stall += 1
            if stall > config.patience:
                break

    model.load_state_dict(best_snapshot[0])
    for p in params:
        p.grad = None
    return TrainResult(
        model=model,
        cluster_state=best_snapshot[1],
        history=history,
        best_epoch=best_epoch,
        metrics=best_metrics,
        norm_mean=norm_mean,
        norm_std=norm_std,
    )


def evaluate(
    model: GroupedStepwiseModel,
    state: ClusterState,
    membership: np.ndarray,
    dataset: LabeledDataset,
    config: ExperimentConfig,
    norm_mean: np.ndarray,
    norm_std: np.ndarray,
) -> dict:
    """A checkpoint's validation report, on the run's validation split rebuilt
    from `dataset` and standardized with the run's `norm_mean` and `norm_std`
    (a `TrainResult`'s, or a checkpoint's `input_norm/*`): exactly the run's
    `metrics` for its best checkpoint."""
    rng_split = np.random.default_rng([config.seed, 3])
    _, val_idx = _split_indices(dataset.series.shape[0], config.val_fraction, rng_split)
    x_val = (dataset.series[val_idx] - norm_mean) / norm_std
    return _validate(model, state, membership, x_val, dataset.labels[val_idx].astype(np.float64), dataset, config)
