"""Gradient engine checks: hand-computable cases, finite differences, Adam."""

import tracemalloc

import numpy as np
import pytest

from featgroups.autodiff import (
    AdamState,
    ShapeError,
    Tensor,
    adam_step,
    bce,
    bce_with_logits,
    block_diag,
    concat,
    gradcheck,
    layer_norm,
    linear,
    moment_layer,
    scale_rows,
    scaled_dot_product_attention,
    stack,
)


class TestForward:
    def test_matmul_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal((a @ b).data, [[3.0], [7.0]])

    def test_matmul_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_softmax_of_constants_is_uniform(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(50, 7)) * 10)
        out = x.softmax(axis=-1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_bce_of_sigmoid_zero_is_ln2(self):
        loss = bce(Tensor([0.5]), Tensor([1.0]))  # sigmoid(0) = 0.5
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_with_logits_matches_plain_bce(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=20)
        y = rng.integers(0, 2, size=20).astype(float)
        a = bce_with_logits(Tensor(z), Tensor(y)).item()
        b = bce(Tensor(1 / (1 + np.exp(-z))), Tensor(y)).item()
        assert a == pytest.approx(b, rel=1e-10)

    def test_bce_with_logits_stable_at_extreme_logits(self):
        loss = bce_with_logits(Tensor([500.0]), Tensor([1.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_constant_leaves_untouched(self):
        x = Tensor(2.0, requires_grad=True)
        c = Tensor(5.0)
        (x * c).backward()
        assert c.grad is None

    def test_gradients_accumulate_until_cleared(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        assert float(x.grad) == 4.0
        (x * x).backward()
        assert float(x.grad) == 8.0
        x.grad = None
        (x * x).backward()
        assert float(x.grad) == 4.0

    def test_leaves_sharing_one_gradient_accumulate_apart(self):
        # add hands both leaves the same incoming gradient array
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (a + b).sum().backward()
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_gradcheck_ignores_an_earlier_backward(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = rng.normal(size=(4, 3))

        def loss():
            y = Tensor(x) @ w
            return (y * y).sum()

        clean = gradcheck(loss, [w])
        loss().backward()
        assert gradcheck(loss, [w]) == clean

    def test_shared_subexpression_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert x.grad == pytest.approx(12.0)

    def test_backward_linearity(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = rng.normal(size=(4, 1))

        def loss_a():
            return ((Tensor(x).transpose((1, 0)) @ (w @ Tensor(x)))).reshape(()) * 1.0

        def loss_b():
            y = w @ Tensor(x)
            return (y * y).sum()

        loss_a().backward()
        ga = w.grad.copy()
        w.grad = None
        loss_b().backward()
        gb = w.grad.copy()
        w.grad = None
        (loss_a() + loss_b()).backward()
        np.testing.assert_allclose(w.grad, ga + gb, atol=1e-10)

    def test_three_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        params = [
            Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True),
            Tensor(rng.normal(size=(4,)) * 0.5, requires_grad=True),
            Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True),
            Tensor(rng.normal(size=(3,)) * 0.5, requires_grad=True),
            Tensor(rng.normal(size=(3, 1)) * 0.5, requires_grad=True),
        ]
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 2, size=(6,)).astype(float)

        def loss():
            w1, b1, w2, b2, w3 = params
            h = (Tensor(x) @ w1 + b1).relu()
            h = (h @ w2 + b2).relu()
            z = (h @ w3).reshape(6)
            return bce_with_logits(z, y)

        assert gradcheck(loss, params, eps=1e-5) < 1e-4


class TestGradcheckOracle:
    def test_linear_layer_error_tiny(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = rng.normal(size=(2, 4))

        def loss():
            return (Tensor(x) @ w).sum()

        assert gradcheck(loss, [w], eps=1e-5) < 1e-6

    def test_attention_block(self):
        rng = np.random.default_rng(5)
        wq = Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True)
        wk = Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True)
        wv = Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True)
        x = rng.normal(size=(3, 5, 4))

        def loss():
            xt = Tensor(x)
            out = scaled_dot_product_attention(xt @ wq, xt @ wk, xt @ wv)
            return (out * out).mean()

        assert gradcheck(loss, [wq, wk, wv], eps=1e-5) < 1e-4

    def test_nonfinite_loss_raises(self):
        x = Tensor(0.0, requires_grad=True)

        def loss():
            return x.log()

        with np.errstate(divide="ignore"), pytest.raises(FloatingPointError):
            gradcheck(loss, [x])

    def test_randomized_op_battery(self):
        # every supported op against central differences, many trials
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            c = Tensor(rng.uniform(0.5, 2.0, size=(3, 2)), requires_grad=True)

            def loss():
                h = (a @ b).relu() + c * 2.0
                h = h * h.softmax(axis=-1)
                h = concat([h, (c * c).sqrt()], axis=1)
                return (h * (1 / 3.0)).mean() + h[::2].sum() * 0.1

            assert gradcheck(loss, [a, b, c], eps=1e-5) < 1e-4


class TestFusedOps:
    """The hot-path ops with hand-derived backwards, each against central
    differences and against the same function composed from primitive ops."""

    def test_fused_ops_match_finite_differences(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 5, 3))
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        shift = Tensor(rng.normal(size=4), requires_grad=True)
        row_w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        row_b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        pool = np.kron(np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]]), np.eye(2))
        parts = [Tensor(rng.normal(size=(2, 2)), requires_grad=True) for _ in range(6)]
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        params = [w, b, gain, shift, row_w, row_b, *parts, bias]

        def loss():
            h = layer_norm(linear(Tensor(x), w, b), gain, shift)
            e = scale_rows(x, row_w, row_b).reshape(10, 6)
            weights = [block_diag(parts[i : i + 2]) for i in (0, 2, 4)]
            m = moment_layer(e, pool, weights, bias)
            return (h * h).mean() + (m * m).mean()

        assert gradcheck(loss, params, eps=1e-5) < 1e-5

    def test_scale_rows_weight_gradient_is_per_feature_at_240_features(self):
        # a wide_gmm chunk: 248 rows of 240 features, H = 6
        rng = np.random.default_rng(33)
        x = rng.normal(size=(248, 240))
        w = Tensor(rng.normal(size=(240, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(240, 6)), requires_grad=True)
        g = rng.normal(size=(248, 240, 6))
        backward = scale_rows(x, w, b)._backward
        tracemalloc.start()
        gw, _ = backward(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1e6  # an (F, F·H) cross product alone is 2.78 MB
        expected = np.stack([x[:, f] @ g[:, f, :] for f in range(240)])
        assert np.abs(gw - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_fused_ops_match_composed_primitives(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(7, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        np.testing.assert_allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b, rtol=1e-12)
        gain, shift = rng.normal(size=3), rng.normal(size=3)
        centered = x - x.mean(axis=1, keepdims=True)
        expected = centered / np.sqrt((centered**2).mean(axis=1, keepdims=True) + 1e-6) * gain + shift
        np.testing.assert_allclose(layer_norm(Tensor(x), Tensor(gain), Tensor(shift)).data, expected, rtol=1e-12)
        pool = rng.normal(size=(3, 2))
        ws = [rng.normal(size=(2, 4)) for _ in range(3)]
        bias = rng.normal(size=4)
        m1 = x @ pool
        expected = m1 @ ws[0] + (m1 * m1) @ ws[1] + ((x * x) @ pool) @ ws[2] + bias
        got = moment_layer(Tensor(x), pool, [Tensor(v) for v in ws], Tensor(bias)).data
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 40.0])
    def test_attention_matches_reference_softmax(self, scale):
        # at scale 40 the scores reach the hundreds, where exp needs the
        # row-max shift; at 0.5 the op skips it
        rng = np.random.default_rng(33)
        q, k, v = (rng.normal(size=(2, 4, 3)) * s for s in (scale, scale, 1.0))
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(3)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)) @ v
        out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


class TestOpsStructure:
    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concat([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (3, 2)

    def test_stack_shape(self):
        parts = [Tensor(np.full((2,), float(i))) for i in range(3)]
        out = stack(parts, axis=0)
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out.data[:, 0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_stack_gradcheck(self, axis):
        rng = np.random.default_rng(4)
        parts = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
        weights = rng.normal(size=np.stack([p.data for p in parts], axis=axis).shape)

        def loss():
            out = stack(parts, axis=axis)
            return (out * out * Tensor(weights)).sum()

        assert gradcheck(loss, parts) < 1e-6

    def test_stack_is_one_node_whose_backward_hands_out_views(self):
        parts = [Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(3)]
        out = stack(parts)
        assert out._parents == tuple(parts)
        grads = out._backward(np.arange(18.0).reshape(3, 2, 3))
        assert all(g.base is not None for g in grads)
        np.testing.assert_array_equal(grads[1], [[6, 7, 8], [9, 10, 11]])

    def test_stack_mismatched_shapes_raise(self):
        with pytest.raises(ShapeError, match="stack"):
            stack([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))])

    def test_getitem_gradient_scatter(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x[0:1, 1:].sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 1], [0, 0, 0]])

    @pytest.mark.parametrize(
        "key", [[1, 1], np.array([0, 2]), (slice(None), [0]), True], ids=["list", "array", "tuple", "bool"]
    )
    def test_getitem_rejects_keys_that_are_not_basic_naming_them(self, key):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with pytest.raises(ValueError, match=r"is not an int, slice, Ellipsis or None"):
            x[key]

    def test_getitem_basic_keys_scatter(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        (x[1, ..., None, np.int64(2)].sum() + x[:, -1].sum()).backward()
        expected = np.zeros((2, 3, 4))
        expected[1, :, 2] += 1.0
        expected[:, -1] += 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((5, 2, 3)), requires_grad=True)
        bias = Tensor(np.zeros((2, 3)), requires_grad=True)
        (x + bias).sum().backward()
        np.testing.assert_array_equal(bias.grad, np.full((2, 3), 5.0))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState.for_params([p])
        p.grad = np.zeros(2)
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_none_gradient_leaves_param_and_moments_unchanged(self):
        # a zero gradient still moves a parameter by the decaying first
        # moment; None (the loss did not reach it) must not
        held = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        drifting = Tensor(held.data.copy(), requires_grad=True)
        state = AdamState.for_params([held, drifting])
        held.grad, drifting.grad = np.ones(3), np.ones(3)
        adam_step([held, drifting], state, lr=0.002)
        before = [held.data.copy(), state.m[0].copy(), state.v[0].copy()]
        moved = drifting.data.copy()
        held.grad, drifting.grad = None, np.zeros(3)
        adam_step([held, drifting], state, lr=0.002)
        for want, got in zip(before, [held.data, state.m[0], state.v[0]]):
            np.testing.assert_array_equal(got, want)
        assert np.all(drifting.data < moved)

    def test_first_step_moves_by_lr_times_sign(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        p.grad = np.array([0.3])
        adam_step([p], state, lr=0.01)
        assert p.data[0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_quadratic_converges(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        history = []
        for _ in range(200):
            p.grad = 2.0 * p.data
            adam_step([p], state, lr=0.1)
            history.append(abs(float(p.data[0])))
        assert history[-1] < 0.05
        # |x| trends down across windows even if individual steps oscillate
        windows = [np.mean(history[i : i + 40]) for i in range(0, 200, 40)]
        assert all(b <= a + 1e-9 for a, b in zip(windows, windows[1:]))

    def test_state_shape_mismatch_raises(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            p.grad = np.ones(4)
            adam_step([p], state, lr=0.1)
