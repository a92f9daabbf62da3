"""Model checks: embedding algebra, group locality, permutation behavior of
the sequence head, and gradient correctness of the full loss."""

import numpy as np
import pytest

from featgroups.autodiff import Tensor, gradcheck, stack
from featgroups.clustering import reg_loss, unify
from featgroups.model import (
    GroupedStepwiseModel,
    ModelConfig,
    _linear_init,
    sinusoidal_positions,
    supervised_loss,
)


def make_model(**overrides):
    defaults = dict(feature_cards=[1] * 4, hidden=3, groups=2, agg_mode="mean", psi="mlp")
    defaults.update(overrides)
    return GroupedStepwiseModel(ModelConfig(**defaults), np.random.default_rng(0))


def hard_groups(assignment, k):
    member = np.zeros((len(assignment), k))
    member[np.arange(len(assignment)), assignment] = 1.0
    return member


class TestModelConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(agg_mode="bogus"), "^agg_mode must be one of"),
            (dict(seq_heads=0), "^seq_heads must be >= 1"),
            (dict(hidden=0), "^hidden must be >= 1"),
            (dict(seq_width=5, seq_heads=2), "^seq_width 5 must be divisible by seq_heads 2"),
        ],
    )
    def test_bad_setting_names_its_field(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**dict(feature_cards=[1] * 4, **overrides))


class TestFeatureEmbed:
    def test_identity_psi_scales_weight_column(self):
        model = make_model(feature_cards=[1], groups=1, psi="identity")
        model.feature_weights[0].data = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        x = np.full((1, 1, 1), 2.0)
        h = model.feature_embed(x)
        np.testing.assert_allclose(h.data[0, 0, 0], [2.0, 4.0, 6.0])

    def test_zero_input_zero_bias_relu_gives_zero_row(self):
        model = make_model(feature_cards=[1, 1], groups=1, psi="relu")
        for w in model.feature_weights:
            w.data[1] = 0.0
        h = model.feature_embed(np.zeros((2, 3, 2)))
        np.testing.assert_array_equal(h.data, np.zeros((2, 3, 2, 3)))

    def test_categorical_feature_cards_rejected(self):
        with pytest.raises(ValueError, match="feature_cards"):
            make_model(feature_cards=[1, 3])

    def test_mixed_layout_matches_numeric_fast_path(self):
        # every feature is numerical: one (H,) embedding per feature and step
        fast = make_model(feature_cards=[1, 1], groups=1, psi="mlp")
        x = np.random.default_rng(1).normal(size=(2, 3, 2))
        h = fast.feature_embed(x)
        assert h.shape == (2, 3, 2, 3)

    def test_feature_weight_arrays_is_a_stacked_copy(self):
        model = make_model()
        arrays = model.feature_weight_arrays()
        assert arrays.shape == (4, 2, 3)
        for row, w in zip(arrays, model.feature_weights):
            np.testing.assert_array_equal(row, w.data)
        arrays[:] = 0.0
        assert all(np.any(w.data) for w in model.feature_weights)


def phi_reference(h, params):
    """Group MLP applied to the (mean, mean², mean-of-squares) summary."""
    pooled = h.data.mean(axis=2)
    moments = np.concatenate([pooled, pooled**2, (h.data**2).mean(axis=2)], axis=2)
    w1, b1, w2, b2 = (p.data for p in params)
    return np.maximum(moments @ w1 + b1, 0.0) @ w2 + b2


class TestGroupEmbed:
    def test_single_group_equals_phi_of_all_features(self):
        model = make_model(groups=1)
        x = np.random.default_rng(2).normal(size=(2, 3, 4))
        h = model.feature_embed(x)
        g = model.group_embed(h, np.ones((4, 1)))
        np.testing.assert_allclose(g.data, phi_reference(h, model.group_params[0]))

    def test_concat_width_is_sum_of_group_widths(self):
        model = make_model(agg_mode="concat")
        x = np.random.default_rng(3).normal(size=(2, 3, 4))
        g = model.group_embed(model.feature_embed(x), hard_groups([0, 0, 1, 1], 2))
        assert g.shape == (2, 3, 6)

    def test_permuting_features_with_membership_rows_is_invariant(self):
        model = make_model(groups=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        member = hard_groups([0, 1, 0, 1], 2)
        base = model.group_embed(model.feature_embed(x), member).data
        perm = np.array([2, 0, 3, 1])
        # permute both the input features (and their weights) and M's rows
        x_p = x[:, :, perm]
        weights = [model.feature_weights[f].data.copy() for f in perm]
        for f, w in enumerate(weights):
            model.feature_weights[f].data = w
        permuted = model.group_embed(model.feature_embed(x_p), member[perm]).data
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_empty_group_skipped_in_mean(self):
        model = make_model(groups=2)
        x = np.random.default_rng(5).normal(size=(1, 2, 4))
        h = model.feature_embed(x)
        member = np.zeros((4, 2))
        member[:, 0] = 1.0
        g = model.group_embed(h, member)
        np.testing.assert_allclose(g.data, phi_reference(h, model.group_params[0]))

    def test_empty_group_gets_no_attention(self):
        # the one non-empty group takes all the attention weight
        model = make_model(groups=3, agg_mode="attention")
        x = np.random.default_rng(5).normal(size=(1, 2, 4))
        h = model.feature_embed(x)
        member = np.zeros((4, 3))
        member[:, 1] = 1.0
        g = model.group_embed(h, member)
        np.testing.assert_allclose(g.data, phi_reference(h, model.group_params[1]))

    def test_unassigned_feature_rejected(self):
        model = make_model(groups=2)
        x = np.zeros((1, 1, 4))
        member = hard_groups([0, 0, 1, 1], 2)
        member[3] = 0.0
        with pytest.raises(ValueError, match="at least one group"):
            model.group_embed(model.feature_embed(x), member)

    def test_hard_locality(self):
        # zeroing feature f's embedding row changes only f's group output
        model = make_model(groups=2, agg_mode="concat")
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 4))
        member = hard_groups([0, 1, 0, 1], 2)
        h = model.feature_embed(x)
        g_base = model.group_embed(h, member).data
        h_zeroed = Tensor(h.data.copy())
        h_zeroed.data[:, :, 0, :] = 0.0  # feature 0 belongs to group 0
        g_edit = model.group_embed(h_zeroed, member).data
        hidden = model.config.hidden
        assert not np.allclose(g_edit[..., :hidden], g_base[..., :hidden])
        np.testing.assert_allclose(g_edit[..., hidden:], g_base[..., hidden:])

    def test_soft_multi_membership_feeds_both_groups(self):
        model = make_model(groups=2, agg_mode="concat")
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 4))
        h = model.feature_embed(x)
        member = hard_groups([0, 1, 0, 1], 2)
        soft = member.copy()
        soft[0, 1] = 1.0  # feature 0 additionally joins group 1
        g_hard = model.group_embed(h, member).data
        g_soft = model.group_embed(h, soft).data
        hidden = model.config.hidden
        np.testing.assert_allclose(g_soft[..., :hidden], g_hard[..., :hidden])
        assert not np.allclose(g_soft[..., hidden:], g_hard[..., hidden:])


    @pytest.mark.parametrize("agg_mode", ["mean", "concat", "attention"])
    def test_empty_group_parameters_stay_off_the_tape(self, agg_mode):
        # group 2 of 3 is empty: it runs on zeros, so its parameters get no
        # gradient and their values cannot reach the output
        model = make_model(agg_mode=agg_mode, groups=3)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4))
        member = hard_groups([0, 1, 0, 1], 3)
        logits = model.forward(x, member)
        supervised_loss(logits, np.array([0.0, 1.0])).backward()
        for p in model.group_params[2]:
            assert p.grad is None, p.name
        for p in model.group_params[2]:
            p.data = rng.normal(size=p.shape)
        np.testing.assert_array_equal(model.forward(x, member).data, logits.data)


class TestSequenceHead:
    def test_t1_runs_and_matches_constant_series(self):
        model = make_model()
        rng = np.random.default_rng(8)
        x1 = rng.normal(size=(3, 1, 4))
        member = hard_groups([0, 0, 1, 1], 2)
        logit_t1 = model.forward(x1, member).data
        x_const = np.repeat(x1, 5, axis=1)  # same step 5 times
        logit_const = model.forward(x_const, member).data
        np.testing.assert_allclose(logit_const, logit_t1, atol=1e-10)

    def test_time_permutation_invariant_without_positions(self):
        model = make_model(positional_encoding=False)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6, 4))
        member = hard_groups([0, 0, 1, 1], 2)
        base = model.forward(x, member).data
        perm = rng.permutation(6)
        shuffled = model.forward(x[:, perm, :], member).data
        np.testing.assert_allclose(shuffled, base, atol=1e-10)

    def test_positional_encoding_breaks_invariance(self):
        model = make_model(positional_encoding=True)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 6, 4))
        member = hard_groups([0, 0, 1, 1], 2)
        base = model.forward(x, member).data
        shuffled = model.forward(x[:, ::-1, :], member).data
        assert not np.allclose(shuffled, base, atol=1e-8)

    def test_positions_alternate_sin_cos(self):
        enc = sinusoidal_positions(4, 6)
        assert enc.shape == (4, 6)
        np.testing.assert_allclose(enc[0, 0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(enc[0, 1::2], 1.0, atol=1e-15)


class TestLoss:
    def test_logit_zero_label_one_is_ln2(self):
        assert supervised_loss(Tensor([0.0]), [1.0]).item() == pytest.approx(np.log(2.0))

    def test_large_logit_drives_loss_to_zero(self):
        assert supervised_loss(Tensor([60.0]), [1.0]).item() == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean_reduction(self):
        a = supervised_loss(Tensor([1.3]), [1.0]).item()
        b = supervised_loss(Tensor([-0.4]), [0.0]).item()
        both = supervised_loss(Tensor([1.3, -0.4]), [1.0, 0.0]).item()
        assert both == pytest.approx((a + b) / 2.0)


class TestGradients:
    @pytest.mark.parametrize(
        "agg_mode, assignment, groups",
        [pytest.param(mode, [0, 1, 0], 2, id=mode) for mode in ("mean", "concat", "attention")]
        # group 2 of 3 is empty: its parameters stay off the tape
        + [pytest.param(mode, [1, 0, 1], 3, id=f"{mode}-empty-group") for mode in ("mean", "concat", "attention")],
    )
    def test_full_model_gradcheck(self, agg_mode, assignment, groups):
        model = make_model(agg_mode=agg_mode, feature_cards=[1, 1, 1], groups=groups, hidden=2, seq_width=4)
        # scale weights and inputs up so attention leaves the near-uniform
        # regime (tiny true gradients would sit at the finite-difference noise
        # floor); the data seed keeps ReLU pre-activations clear of kinks,
        # where central differences are invalid for any implementation
        rng = np.random.default_rng(2)
        for p in model.parameters():
            p.data = p.data * 2.5
        x = rng.normal(size=(3, 4, 3)) * 2.0
        y = rng.integers(0, 2, size=3).astype(float)
        member = hard_groups(assignment, groups)

        def loss():
            return supervised_loss(model.forward(x, member), y)

        assert gradcheck(loss, model.parameters(), eps=1e-5) < 1e-4

    def test_combined_loss_gradcheck_on_feature_weights(self):
        # both loss terms active: supervised + cluster-shape regularizer
        model = make_model(feature_cards=[1, 1, 1, 1], groups=2, hidden=2, seq_width=4)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4, 4))
        y = rng.integers(0, 2, size=3).astype(float)
        member = hard_groups([0, 1, 0, 1], 2)
        centroids = rng.normal(size=(2, 4))

        def loss():
            sup = supervised_loss(model.forward(x, member), y)
            u = unify(stack(model.feature_weights), "bias_sum_linear")
            reg, _ = reg_loss(u, member, centroids, "hard")
            return sup + 0.5 * reg

        assert gradcheck(loss, model.feature_weights, eps=1e-5) < 1e-4

    def test_checkpoint_roundtrip_bit_identical_forward(self):
        model = make_model()
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 4))
        member = hard_groups([0, 0, 1, 1], 2)
        base = model.forward(x, member).data
        state = model.state_dict()
        clone = make_model()
        clone.load_state_dict(state)
        np.testing.assert_array_equal(clone.forward(x, member).data, base)


class TestParameters:
    def test_named_parameters_order_is_the_checkpoint_layout(self):
        model = make_model(psi="mlp", agg_mode="attention", groups=2)
        names = [name for name, _ in model.named_parameters()]
        assert names == [
            "feature/0/weight", "feature/1/weight", "feature/2/weight", "feature/3/weight",
            "psi/w1", "psi/b1", "psi/w2", "psi/b2",
            "group/0/w1", "group/0/b1", "group/0/w2", "group/0/b2",
            "group/1/w1", "group/1/b1", "group/1/w2", "group/1/b2",
            "agg/query",
            "seq/bo", "seq/bq", "seq/bv", "seq/ffn_b1", "seq/ffn_b2", "seq/ffn_w1", "seq/ffn_w2",
            "seq/ln1_b", "seq/ln1_g", "seq/ln2_b", "seq/ln2_g", "seq/ln3_b", "seq/ln3_g",
            "seq/out_b", "seq/out_w", "seq/proj_b", "seq/proj_w", "seq/wk", "seq/wo", "seq/wq", "seq/wv",
        ]

    def test_parameters_are_drawn_in_the_documented_order(self):
        model = make_model(psi="mlp", agg_mode="attention", groups=2)
        h, s, d_in = 3, model.config.seq_width, 3
        rng = np.random.default_rng(0)
        expected = {}
        base = _linear_init(rng, 1, (2, h))
        for f in range(4):
            expected[f"feature/{f}/weight"] = base + 0.01 * rng.standard_normal((2, h))
        for prefix, n_in in [("psi", h), ("group/0", 3 * h), ("group/1", 3 * h)]:
            expected[f"{prefix}/w1"] = _linear_init(rng, n_in, (n_in, h))
            expected[f"{prefix}/b1"] = _linear_init(rng, n_in, (h,))
            expected[f"{prefix}/w2"] = _linear_init(rng, h, (h, h))
            expected[f"{prefix}/b2"] = _linear_init(rng, h, (h,))
        expected["agg/query"] = _linear_init(rng, h, (h,))
        expected["seq/proj_w"] = _linear_init(rng, d_in, (d_in, s))
        expected["seq/proj_b"] = _linear_init(rng, d_in, (s,))
        for key in ["wq", "bq", "wk", "wv", "bv", "wo", "bo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"]:
            expected[f"seq/{key}"] = _linear_init(rng, s, (s, s) if "w" in key else (s,))
        expected["seq/out_w"] = _linear_init(rng, s, (s, 1))
        expected["seq/out_b"] = _linear_init(rng, s, (1,))
        for ln in ("ln1", "ln2", "ln3"):
            expected[f"seq/{ln}_g"] = np.ones(s)
            expected[f"seq/{ln}_b"] = np.zeros(s)
        state = model.state_dict()
        assert sorted(state) == sorted(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(state[name], value, err_msg=name)


class TestTapeSize:
    def test_node_count_does_not_grow_with_feature_count(self, monkeypatch):
        op = Tensor.__dict__["_op"].__func__
        made = []
        monkeypatch.setattr(Tensor, "_op", staticmethod(lambda *args: made.append(1) or op(*args)))
        counts = []
        for n_features in (4, 40):
            # one training step: forward, regularizer, backward
            model = make_model(feature_cards=[1] * n_features)
            rng = np.random.default_rng(14)
            x = rng.normal(size=(2, 3, n_features))
            member = hard_groups(np.arange(n_features) % 2, 2)
            made.clear()
            u = unify(stack(model.feature_weights), "bias_sum_linear")
            reg, _ = reg_loss(u, member, rng.normal(size=(2, 6)), "hard")
            (supervised_loss(model.forward(x, member), np.array([0.0, 1.0])) + reg).backward()
            counts.append(len(made))
        assert counts[0] == counts[1]
