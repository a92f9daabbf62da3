"""Training-loop checks on miniature datasets: early stopping, loss-term
isolation, fixed-group equivalence, divergence handling, determinism."""

import tracemalloc

from dataclasses import fields

import numpy as np
import pytest

from featgroups import metrics, trainer
from featgroups.autodiff import Tensor, adam_step, stack
from featgroups.clustering import ReclusterOptions, reg_loss, unify
from featgroups.model import GroupedStepwiseModel, ModelConfig, supervised_loss
from featgroups.synthdata import GpSpec, assign_labels, generate_dataset
from featgroups.trainer import (
    ExperimentConfig,
    TrainingDiverged,
    _split_indices,
    evaluate,
    train,
)


def tiny_dataset(seed=0, samples=80, length=5):
    return generate_dataset(GpSpec(samples=samples, length=length, seed=seed))


def set_chunk_rows(monkeypatch, rows, steps=5, features=6, hidden=3):
    """Set the chunk budget so that inputs of `steps` x `features` at `hidden`
    units (by default `tiny_dataset`'s under `tiny_config`) run as chunks of
    `rows` rows."""
    monkeypatch.setattr(trainer, "CHUNK_VALUES", rows * steps * features * hidden)


def tiny_config(**overrides):
    defaults = dict(
        seed=0,
        epochs=4,
        batch_size=40,
        patience=10,
        hidden=3,
        seq_width=4,
        lr=0.01,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_roundtrip(self):
        config = tiny_config(reg_weight=0.1, algorithm="gmm", covariance_type="diagonal")
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"learning_rate": 0.1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reg_weight=1.0),
            dict(ema_decay=-0.1),
            dict(delta=1.0),
            dict(recluster_every=0),
            dict(grouping="fixed"),
            dict(algorithm="dbscan"),
            dict(recluster_unit="minute"),
            dict(val_fraction=0.0),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("batch_size", 0),
            ("epochs", 0),
            ("groups", 0),
            ("lr", 0.0),
            ("lr", -1.0),
            ("lr", float("nan")),
            ("patience", -1),
            ("fuzzifier", 1.0),
            ("hidden", 0),
            ("seq_width", 0),
            ("seq_heads", 0),
            ("seed", -1),
            ("batch_size", "5"),
        ],
    )
    def test_out_of_range_value_names_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            tiny_config(**{name: value})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(grouping="fixed", fixed_groups=(0, 1, 2)), r"^fixed_groups must be a list of ints in \[0, 3\)"),
            (dict(grouping="fixed", fixed_groups=[0, -1]), r"^fixed_groups must be a list of ints in \[0, 3\)"),
            (dict(init="prior"), r"^grouping 'dynamic' with init 'prior' needs prior_groups"),
            (dict(init="prior", prior_groups=[0, 1.0, 2]), r"^prior_groups must be a list of ints in \[0, 3\)"),
        ],
    )
    def test_given_grouping_names_its_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**kwargs)

    def test_only_the_grouping_the_run_reads_is_checked(self):
        # a fixed grouping never reads prior_groups; a dynamic one never
        # reads fixed_groups
        tiny_config(grouping="fixed", fixed_groups=[0, 0, 1], init="prior", prior_groups=["unused"])
        tiny_config(fixed_groups=["unused"])

    def test_seq_width_that_seq_heads_does_not_divide_names_both(self):
        with pytest.raises(ValueError, match="^seq_width 5 must be divisible by seq_heads 2"):
            tiny_config(seq_width=5, seq_heads=2)

    @pytest.mark.parametrize(
        "name",
        ["agg_mode", "psi", "membership", "combine_mode", "covariance_type", "ema_rule", "reg_variant", "feature_init"],
    )
    def test_unknown_enumerated_value_names_field(self, name):
        with pytest.raises(ValueError, match=name):
            tiny_config(**{name: "bogus"})

    @pytest.mark.parametrize(
        "name, value",
        [
            (f.name, value)
            for f in fields(ExperimentConfig)
            for value in {"int": (1.5, True), "float": ("0.5", False), "bool": (0, "false")}.get(f.type, ())
        ],
    )
    def test_value_of_the_wrong_kind_names_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be of type"):
            tiny_config(**{name: value})

    def test_given_grouping_is_the_list_the_run_reads(self):
        assert tiny_config().given_grouping is None
        assert tiny_config(init="prior", prior_groups=[0, 1, 2]).given_grouping == "prior_groups"
        fixed = tiny_config(grouping="fixed", fixed_groups=[0], init="prior", prior_groups=["unused"])
        assert fixed.given_grouping == "fixed_groups"

    def test_model_config_carries_the_model_settings(self):
        config = tiny_config(agg_mode="concat", psi="relu", seq_heads=4, positional_encoding=True)
        assert config.model_config(5) == ModelConfig(
            feature_cards=[1] * 5,
            hidden=3,
            groups=3,
            agg_mode="concat",
            psi="relu",
            seq_width=4,
            seq_heads=4,
            positional_encoding=True,
        )

    def test_model_and_recluster_settings_are_experiment_fields(self):
        # `train` fills ModelConfig and ReclusterOptions by field name
        experiment = {f.name: f.default for f in fields(ExperimentConfig)}
        model = {f.name: f.default for f in fields(ModelConfig) if f.name != "feature_cards"}
        assert model == {name: experiment[name] for name in model}
        recluster = {f.name: f.default for f in fields(ReclusterOptions)}
        assert recluster == {name: experiment[name] for name in recluster}


class TestTrainLoop:
    def test_single_group_no_reg_trains(self):
        with pytest.warns(UserWarning, match="NMI undefined"):
            result = train(tiny_config(groups=1, reg_weight=0.0), tiny_dataset())
        assert len(result.history) == 4
        assert all(r.reg_loss == 0.0 for r in result.history)
        assert all(np.array(r.membership).sum(axis=1).min() >= 1 for r in result.history)

    def test_output_bias_starts_at_class_prior(self, monkeypatch):
        # with Adam holding every parameter, the returned checkpoint is the
        # model as built
        monkeypatch.setattr(trainer, "adam_step", lambda params, state, lr: state)
        dataset = tiny_dataset()
        config = tiny_config(epochs=1)
        result = train(config, dataset)
        train_idx, _ = _split_indices(
            dataset.series.shape[0], config.val_fraction, np.random.default_rng([config.seed, 3])
        )
        rate = dataset.labels[train_idx].mean()
        assert 0.0 < rate < 1.0
        np.testing.assert_allclose(
            result.model.seq_params["out_b"].data, [np.log(rate / (1.0 - rate))], rtol=1e-12
        )

    def test_best_checkpoint_is_minimum_val_not_final(self):
        dataset = tiny_dataset()
        config = tiny_config(epochs=12, lr=0.3)
        result = train(config, dataset)
        vals = [r.val_loss for r in result.history]
        assert result.best_epoch == int(np.argmin(vals))
        assert result.metrics["val_loss"] == pytest.approx(min(vals))
        # the returned model is the best checkpoint, not the last, with no
        # gradient left on it
        assert result.best_epoch < len(result.history) - 1
        assert all(p.grad is None for p in result.model.parameters())
        again = evaluate(
            result.model, result.cluster_state, result.membership, dataset, config, result.norm_mean, result.norm_std
        )
        assert again == result.metrics

    def test_early_stopping_halts_after_patience(self):
        result = train(tiny_config(epochs=60, patience=3, lr=0.5), tiny_dataset())
        vals = [r.val_loss for r in result.history]
        best = int(np.argmin(vals))
        assert len(result.history) < 60
        assert len(result.history) - 1 - best >= 3

    def test_patience_waits_out_the_prior_plateau(self):
        # at lr 0.5 this run never beats the class-prior predictor, so patience
        # starts counting only after a tenth of the epoch budget
        result = train(tiny_config(epochs=200, patience=3, lr=0.5), tiny_dataset())
        assert 20 + 3 < len(result.history) < 200

    def test_reg_loss_recorded_when_active(self):
        result = train(tiny_config(reg_weight=0.3), tiny_dataset())
        assert any(r.reg_loss > 0.0 for r in result.history)

    @pytest.mark.parametrize("algorithm", ["kmeans", "fuzzy", "gmm"])
    def test_soft_regularizer_trains_and_repeats(self, algorithm):
        # the soft variant softmaxes `clustering.reg_basis`: distances under
        # K-means, membership scores under fuzzy C-means and a diagonal GMM
        config = tiny_config(reg_weight=0.3, reg_variant="soft", algorithm=algorithm, covariance_type="diagonal")
        first, again = (train(config, tiny_dataset(samples=120)) for _ in range(2))
        assert len(first.history) == 4
        assert all(r.reg_loss > 0.0 for r in first.history)
        assert [r.to_json() for r in first.history] == [r.to_json() for r in again.history]

    def test_independent_feature_init_trains_and_repeats(self):
        config = tiny_config(feature_init="independent")
        first, again = (train(config, tiny_dataset()) for _ in range(2))
        assert len(first.history) == 4
        assert [r.to_json() for r in first.history] == [r.to_json() for r in again.history]

    def test_non_finite_training_loss_diverges_with_its_diagnostic(self):
        dataset = tiny_dataset()
        dataset.series[:, 0, 0] = np.nan  # poison every sample, any split
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0 step 0") as excinfo:
            train(tiny_config(), dataset)
        info = excinfo.value.info
        assert info["epoch"] == 0 and info["step"] == 0
        assert not np.isfinite(info["train_loss"])
        assert info["reg_loss"] == 0.0

    def test_empty_training_split_fails_before_the_first_epoch(self):
        # 3 samples at val_fraction 0.9: all 3 go to validation
        with pytest.raises(ValueError, match=r"3 samples with val_fraction 0.9 leave no training samples"):
            train(tiny_config(val_fraction=0.9), tiny_dataset(samples=3))

    def test_deterministic_histories(self):
        a = train(tiny_config(epochs=3), tiny_dataset())
        b = train(tiny_config(epochs=3), tiny_dataset())
        for ra, rb in zip(a.history, b.history):
            assert ra.to_json() == rb.to_json()

    @pytest.mark.parametrize("unit", ["batch", "epoch"])
    def test_recluster_units_run(self, unit):
        config = tiny_config(recluster_unit=unit, recluster_every=2, ema_decay=0.5)
        result = train(config, tiny_dataset())
        assert result.membership.shape == (6, 3)

    @pytest.mark.parametrize("algorithm", ["kmeans", "fuzzy", "gmm"])
    def test_algorithms_run(self, algorithm):
        config = tiny_config(
            algorithm=algorithm,
            membership="soft" if algorithm != "kmeans" else "hard",
            covariance_type="diagonal",
            ema_decay=0.25,
        )
        result = train(config, tiny_dataset())
        assert result.membership.sum(axis=1).min() >= 1


class TestGroupingRecord:
    def test_result_and_history_read_the_grouping_from_the_state(self, monkeypatch):
        returned = []
        original = trainer.recluster

        def recording_recluster(*args):
            returned.append(original(*args))
            return returned[-1]

        monkeypatch.setattr(trainer, "recluster", recording_recluster)
        result = train(tiny_config(epochs=3, patience=3), tiny_dataset())
        assert len(returned) == len(result.history) == 3
        assert result.membership is result.cluster_state.membership
        member, state = returned[-1]
        assert member is state.membership
        assert result.history[-1].membership == member.astype(int).tolist()


def emptied_group_steps(monkeypatch):
    """Adam's (grad, parameter, m, v) per parameter name at each of a run's
    two steps. Step 0 trains under the prior grouping [0, 0, 1, 1]; the
    recluster after it moves every feature into group 0, so at step 1 group 1
    is empty and the loss does not reach it."""
    spec = GpSpec(samples=40, features=4, length=5, length_scales=[1.0] * 4, amplitudes=[1.0] * 4)
    dataset = generate_dataset(spec)
    dataset.truth_groups = [[0, 1], [2, 3]]

    def emptying_recluster(weights, state, options, rng):
        member = np.zeros((4, 2))
        member[:, 0] = 1.0
        state = state.copy()
        state.membership = member
        return member, state

    seen = []

    def recording_adam(params, state, lr):
        adam_step(params, state, lr)
        seen.append(
            {p.name: (p.grad, p.data.copy(), m.copy(), v.copy()) for p, m, v in zip(params, state.m, state.v)}
        )
        return state

    monkeypatch.setattr(trainer, "recluster", emptying_recluster)
    monkeypatch.setattr(trainer, "adam_step", recording_adam)
    config = tiny_config(
        groups=2, epochs=1, batch_size=18, init="prior", prior_groups=[0, 0, 1, 1], recluster_unit="batch"
    )
    train(config, dataset)
    assert len(seen) == 2
    return seen


class TestEmptyGroups:
    def test_emptied_group_parameters_and_adam_moments_do_not_move(self, monkeypatch):
        # Adam must leave the emptied group's parameters and moments where
        # step 0 left them
        seen = emptied_group_steps(monkeypatch)
        group1 = [name for name in seen[0] if name.startswith("group/1/")]
        assert len(group1) == 4
        for name in group1:
            (g0, *after0), (g1, *after1) = seen[0][name], seen[1][name]
            assert np.any(g0), name
            assert g1 is None, name
            for before, after in zip(after0, after1):
                np.testing.assert_array_equal(after, before, err_msg=name)
        # a group the loss still reaches keeps moving
        assert not np.array_equal(seen[0]["group/0/w1"][1], seen[1]["group/0/w1"][1])


class TestLossIsolation:
    def test_reg_gradients_touch_only_feature_weights(self):
        # identical parameter point: all non-embedding gradients must match
        # bit-for-bit whether the regularizer is on or off
        dataset = tiny_dataset()
        x, y = dataset.series[:16], dataset.labels[:16].astype(float)
        member = np.zeros((6, 3))
        member[[0, 1, 2, 3, 4, 5], [0, 0, 1, 1, 2, 2]] = 1.0
        centroids = np.random.default_rng(0).normal(size=(3, 8))

        grads = {}
        for weight in (0.0, 0.7):
            model = GroupedStepwiseModel(
                ModelConfig(feature_cards=[1] * 6, hidden=4, groups=3, seq_width=4),
                np.random.default_rng(5),
            )
            loss = supervised_loss(model.forward(x, member), y)
            if weight > 0.0:
                u = unify(stack(model.feature_weights), "bias_sum_linear")
                reg, _ = reg_loss(u, member, centroids, "hard")
                loss = loss + weight * reg
            loss.backward()
            grads[weight] = {name: p.grad.copy() for name, p in model.named_parameters()}

        for name in grads[0.0]:
            if name.startswith("feature/"):
                assert not np.array_equal(grads[0.0][name], grads[0.7][name])
            else:
                np.testing.assert_array_equal(grads[0.0][name], grads[0.7][name])

    def test_fixed_groups_equal_dynamic_without_reclustering(self):
        # lambda=0 and no reclustering reduces to plain fixed-group training
        dataset = tiny_dataset()
        dynamic = train(
            tiny_config(recluster_unit="never", reg_weight=0.0, epochs=3), dataset
        )
        initial_assignment = np.array(dynamic.history[0].membership).argmax(axis=1)
        fixed = train(
            tiny_config(
                grouping="fixed",
                fixed_groups=initial_assignment.tolist(),
                reg_weight=0.0,
                epochs=3,
            ),
            dataset,
        )
        for ra, rb in zip(dynamic.history, fixed.history):
            assert ra.train_loss == rb.train_loss
            assert ra.val_loss == rb.val_loss


class TestEvaluate:
    def test_oracle_membership_scores_perfectly(self):
        dataset = tiny_dataset()
        config = tiny_config(grouping="fixed", fixed_groups=[0, 0, 1, 1, 2, 2], epochs=2)
        result = train(config, dataset)
        assert result.metrics["ari"] == pytest.approx(1.0)
        assert result.metrics["nmi"] == pytest.approx(1.0)

    def test_metrics_bundle_keys(self):
        result = train(tiny_config(epochs=2), tiny_dataset())
        assert {"auprc", "auroc", "ari", "nmi", "silhouette", "partition", "val_loss"} <= set(
            result.metrics
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(algorithm="fuzzy", membership="soft"),
            dict(algorithm="gmm", covariance_type="diagonal", recluster_unit="batch"),
            dict(grouping="fixed", fixed_groups=[0, 0, 1, 1, 2, 2]),
        ],
        ids=["kmeans", "fuzzy_soft", "gmm_diagonal_batch", "fixed"],
    )
    def test_evaluate_standalone_matches_training_metrics(self, overrides):
        # the run's metrics are its best epoch's validation report, and the
        # checkpoint re-evaluates to exactly that report
        dataset = tiny_dataset()
        config = tiny_config(epochs=3, **overrides)
        result = train(config, dataset)
        again = evaluate(
            result.model,
            result.cluster_state,
            result.membership,
            dataset,
            config,
            result.norm_mean,
            result.norm_std,
        )
        assert again == result.metrics
        assert result.metrics["val_loss"] == result.history[result.best_epoch].val_loss

    def test_validation_ranks_logits_too_large_for_a_sigmoid(self, monkeypatch):
        dataset = tiny_dataset()
        config = tiny_config(epochs=1)
        result = train(config, dataset)
        _, val_idx = _split_indices(
            dataset.series.shape[0], config.val_fraction, np.random.default_rng([config.seed, 3])
        )
        labels = dataset.labels[val_idx].astype(np.float64)
        assert 0 < labels.sum() < labels.size
        z = np.where(np.arange(labels.size) % 3 == 0, 800.0, -800.0)
        monkeypatch.setattr(trainer, "_batched_logits", lambda model, x, membership: z)
        report = evaluate(
            result.model, result.cluster_state, result.membership, dataset, config, result.norm_mean, result.norm_std
        )
        assert report["auroc"] == metrics.auroc(z, labels)
        assert report["auprc"] == metrics.auprc(z, labels)

    def test_training_runs_one_validation_pass_per_epoch(self, monkeypatch):
        calls = []
        original = trainer._batched_logits

        def counting_logits(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(trainer, "_batched_logits", counting_logits)
        result = train(tiny_config(epochs=3), tiny_dataset())
        assert len(calls) == len(result.history) == 3

    def test_non_finite_validation_loss_diverges(self):
        dataset = tiny_dataset()
        config = tiny_config()
        _, val_idx = _split_indices(
            dataset.series.shape[0], config.val_fraction, np.random.default_rng([config.seed, 3])
        )
        # poison the validation split only: the training statistics and every
        # training step stay finite
        dataset.series[val_idx, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite validation loss at epoch 0") as excinfo:
            train(config, dataset)
        info = excinfo.value.info
        assert info["epoch"] == 0
        assert info["step"] == 2  # both of the epoch's 40-row batches have run
        assert not np.isfinite(info["val_loss"])

    def test_chunked_validation_logits_equal_one_forward(self, monkeypatch):
        # a 40-sample validation split runs as chunks of 7, 7, 7, 7, 7, 5
        set_chunk_rows(monkeypatch, 7)
        dataset = tiny_dataset()
        config = tiny_config(epochs=1, val_fraction=0.5)
        result = train(config, dataset)
        seen = []
        original = trainer._batched_logits

        def recording_logits(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(trainer, "_batched_logits", recording_logits)
        evaluate(
            result.model,
            result.cluster_state,
            result.membership,
            dataset,
            config,
            result.norm_mean,
            result.norm_std,
        )
        _, val_idx = _split_indices(
            dataset.series.shape[0], config.val_fraction, np.random.default_rng([config.seed, 3])
        )
        x_val = (dataset.series[val_idx] - result.norm_mean) / result.norm_std
        whole = result.model.forward(x_val, result.membership).data
        assert len(seen) == 1 and whole.shape == (40,)
        np.testing.assert_allclose(seen[0], whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


class TestChunkedBatches:
    """A batch runs as chunks of `trainer.chunk_rows` rows whose weighted
    gradients add up to the full batch's gradient."""

    def recorded_run(self, monkeypatch, chunk_rows, **overrides):
        set_chunk_rows(monkeypatch, chunk_rows)
        grads = []

        def recording_adam(params, state, lr):
            grads.append({p.name: None if p.grad is None else p.grad.copy() for p in params})
            return adam_step(params, state, lr)

        monkeypatch.setattr(trainer, "adam_step", recording_adam)
        result = train(tiny_config(**overrides), tiny_dataset())
        return grads, [r.train_loss for r in result.history]

    def test_chunked_steps_equal_whole_batch_steps(self, monkeypatch):
        # 72 training samples in batches of 40 and 32: chunks of 7 split
        # both unevenly; the regularizer must enter each step exactly once
        config = dict(epochs=2, reg_weight=0.1)
        whole_grads, whole_losses = self.recorded_run(monkeypatch, 1000, **config)
        chunk_grads, chunk_losses = self.recorded_run(monkeypatch, 7, **config)
        assert len(chunk_grads) == len(whole_grads) == 4
        for whole, chunked in zip(whole_grads, chunk_grads):
            assert whole.keys() == chunked.keys()
            # relative to the whole step's gradient: a few parameters (the
            # attention query bias) get gradients of 1e-9 that are mostly
            # cancellation, and the order of the sums moves their last digits
            scale = np.sqrt(sum(np.sum(g**2) for g in whole.values()))
            for name in whole:
                assert np.linalg.norm(chunked[name] - whole[name]) < 1e-12 * scale, name
        np.testing.assert_allclose(chunk_losses, whole_losses, rtol=1e-12)

    @pytest.mark.parametrize("chunk_rows", [1000, 7])
    def test_regularizer_enters_the_step_as_part_of_the_first_chunk(self, monkeypatch, chunk_rows):
        # the step's gradients must round exactly as one backward of the first
        # chunk's loss plus the weighted regularizer, with the later chunks'
        # gradients added after it in order
        set_chunk_rows(monkeypatch, chunk_rows)
        backward = Tensor.backward
        roots, steps = [], []

        def recording_backward(self):
            roots.append(self)
            backward(self)

        def gradients_of(root, params):
            for p in params:
                p.grad = None
            backward(root)
            return [p.grad for p in params]

        def checking_adam(params, state, lr):
            grads = [p.grad for p in params]
            reg, first, *rest = roots
            expected = gradients_of(first + reg, params)
            for root in rest:
                for i, g in enumerate(gradients_of(root, params)):
                    if g is not None:
                        expected[i] = g if expected[i] is None else expected[i] + g
            steps.append(len(roots))
            for p, g, e in zip(params, grads, expected):
                assert (g is None) == (e is None), p.name
                if g is not None:
                    np.testing.assert_array_equal(g, e, err_msg=p.name)
            roots.clear()
            for p, g in zip(params, grads):
                p.grad = g  # the replayed backwards above overwrote them
            return adam_step(params, state, lr)

        monkeypatch.setattr(Tensor, "backward", recording_backward)
        monkeypatch.setattr(trainer, "adam_step", checking_adam)
        train(tiny_config(epochs=1, reg_weight=0.1), tiny_dataset())
        # batches of 40 and 32 rows, each after the regularizer's backward
        assert steps == ([2, 2] if chunk_rows == 1000 else [7, 6])

    def test_emptied_group_gradients_stay_none_across_chunks(self, monkeypatch):
        # a batch of 18 runs as chunks of 7, 7 and 4, none reaching group 1
        set_chunk_rows(monkeypatch, 7, features=4)
        seen = emptied_group_steps(monkeypatch)
        for name, (g0, *_) in seen[0].items():
            assert g0 is not None, name
            assert (seen[1][name][0] is None) == name.startswith("group/1/"), name

    def test_one_epoch_at_the_paper_shape_stays_small(self):
        # a default-config epoch at the paper's batch of 5000 (5040 training
        # samples, two steps, 560 validation samples); unchunked, the same
        # epoch peaked at 387 MB of numpy allocations, chunked at 65 MB
        peak = self.one_epoch_peak(GpSpec(samples=5600))
        assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"

    def test_one_epoch_at_the_paper_feature_count_stays_small(self):
        # 240 features of 8 steps: one default-config batch of 360 training
        # samples and 40 validation samples. As one 360-row chunk the epoch
        # peaked at 189 MB of numpy allocations, as 31-row chunks at 29 MB
        spec = GpSpec(features=240, length=8, samples=400, length_scales=[1.0] * 240, amplitudes=[1.0] * 240)
        peak = self.one_epoch_peak(spec)
        assert peak < 60e6, f"peak {peak / 1e6:.0f} MB"

    @staticmethod
    def one_epoch_peak(spec):
        """Peak numpy allocation, in bytes, of one default-config epoch."""
        dataset = generate_dataset(spec)
        tracemalloc.start()
        try:
            train(ExperimentConfig(epochs=1), dataset)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestChunkRows:
    @pytest.mark.parametrize(
        "steps, features, hidden, rows",
        [
            (20, 6, 6, 500),  # the paper's shape: the budget is exactly 500 rows
            (8, 240, 6, 31),  # the benchmark's wide_gmm shape
            (20, 6000, 6, 1),  # one row alone exceeds the budget
        ],
    )
    def test_rows_per_chunk(self, steps, features, hidden, rows):
        assert trainer.chunk_rows(steps, features, hidden) == rows
