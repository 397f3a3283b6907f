"""Tests for NN IR operators: shapes, accounting, forward semantics."""

import numpy as np
import pytest

from repro.nn.layers import (
    Activation,
    Concat,
    Conv2D,
    Dense,
    Dot,
    Elementwise,
    Flatten,
    Input,
    ScoreHead,
    OP_REGISTRY,
)


class TestInput:
    def test_shape(self):
        op = Input((3, 4))
        assert op.output_shape() == (3, 4)
        assert op.size == 12

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Input(())
        with pytest.raises(ValueError):
            Input((0, 4))

    def test_cannot_execute(self):
        with pytest.raises(RuntimeError):
            Input((2,)).forward({})


class TestDense:
    def test_shape_and_accounting(self):
        op = Dense(128, 64)
        assert op.output_shape((128,)) == (64,)
        assert op.macs((128,)) == 128 * 64
        assert op.flops((128,)) == 2 * 128 * 64
        assert op.weight_params() == 128 * 64 + 64
        assert op.weight_bytes() == 4 * (128 * 64 + 64)

    def test_no_bias_accounting(self):
        assert Dense(10, 5, bias=False).weight_params() == 50

    def test_flattens_structured_input(self):
        assert Dense(24, 4).output_shape((2, 3, 4)) == (4,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dense(10, 5).output_shape((11,))

    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(0)
        op = Dense(6, 3)
        params = op.init_params(rng)
        x = rng.normal(0, 1, (4, 6)).astype(np.float32)
        np.testing.assert_allclose(
            op.forward(params, x), x @ params["W"] + params["b"], rtol=1e-6
        )

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 5)


class TestConv2D:
    def test_output_shape_same_padding(self):
        op = Conv2D(3, 8, kernel=3, padding=1)
        assert op.output_shape((3, 16, 16)) == (8, 16, 16)

    def test_output_shape_stride(self):
        op = Conv2D(3, 8, kernel=3, stride=2, padding=1)
        assert op.output_shape((3, 16, 16)) == (8, 8, 8)

    def test_macs(self):
        op = Conv2D(3, 8, kernel=3, padding=1)
        # 16*16 pixels * 8 out channels * 3*3*3 reduction
        assert op.macs((3, 16, 16)) == 16 * 16 * 8 * 27
        assert op.flops((3, 16, 16)) == 2 * op.macs((3, 16, 16))

    def test_weight_params(self):
        assert Conv2D(3, 8, kernel=3).weight_params() == 8 * 3 * 9 + 8

    def test_forward_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        op = Conv2D(2, 3, kernel=3, stride=1, padding=1)
        params = op.init_params(rng)
        x = rng.normal(0, 1, (2, 2, 5, 5)).astype(np.float32)
        y = op.forward(params, x)
        # direct computation at one output location
        n, oc, i, j = 1, 2, 2, 3
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        patch = xp[n, :, i : i + 3, j : j + 3]
        expected = float(np.sum(patch * params["W"][oc]) + params["b"][oc])
        assert y[n, oc, i, j] == pytest.approx(expected, rel=1e-5)

    def test_bad_channel_count(self):
        with pytest.raises(ValueError):
            Conv2D(3, 8, kernel=3).output_shape((4, 8, 8))

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel=9).output_shape((1, 4, 4))


def naive_conv2d(x, w, b, stride, padding, grad_out):
    """Float64 loop-over-output-pixels convolution with its backward."""
    x, w, b, grad_out = (np.asarray(a, dtype=np.float64) for a in (x, w, b, grad_out))
    k = w.shape[-1]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x, pad)
    out_h, out_w = grad_out.shape[2:]
    y = np.zeros(grad_out.shape)
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for i in range(out_h):
        for j in range(out_w):
            rows = slice(i * stride, i * stride + k)
            cols = slice(j * stride, j * stride + k)
            patch = xp[:, :, rows, cols]  # (N, C, k, k)
            g = grad_out[:, :, i, j]  # (N, O)
            y[:, :, i, j] = np.einsum("nckl,ockl->no", patch, w) + b
            gw += np.einsum("no,nckl->ockl", g, patch)
            gxp[:, :, rows, cols] += np.einsum("no,ockl->nckl", g, w)
    gx = gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
    return y, gw, grad_out.sum(axis=(0, 2, 3)), gx


class TestConv2DOracle:
    """Forward and every backward output against a naive float64 loop."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_naive_loop(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        op = Conv2D(3, 4, kernel=kernel, stride=stride, padding=padding)
        params = op.init_params(rng)
        params["b"] = rng.normal(0, 1, 4).astype(np.float32)
        x = rng.normal(0, 1, (2, 3, 7, 6)).astype(np.float32)
        y = op.forward(params, x)
        grad_out = rng.normal(0, 1, y.shape).astype(np.float32)
        grads, (grad_x,) = op.backward(params, [x], y, grad_out, (True,))
        ref_y, ref_gw, ref_gb, ref_gx = naive_conv2d(
            x, params["W"], params["b"], stride, padding, grad_out
        )
        tol = {"rtol": 1e-5, "atol": 1e-5}
        np.testing.assert_allclose(y, ref_y, **tol)
        np.testing.assert_allclose(grads["W"], ref_gw, **tol)
        np.testing.assert_allclose(grads["b"], ref_gb, **tol)
        np.testing.assert_allclose(grad_x, ref_gx, **tol)
        assert grad_x.shape == x.shape and grads["W"].shape == params["W"].shape

    def test_unneeded_input_gradient_is_skipped(self):
        rng = np.random.default_rng(7)
        op = Conv2D(2, 3, kernel=3, stride=2, padding=1)
        params = op.init_params(rng)
        x = rng.normal(0, 1, (2, 2, 5, 4)).astype(np.float32)
        y = op.forward(params, x)
        grad_out = rng.normal(0, 1, y.shape).astype(np.float32)
        full, _ = op.backward(params, [x], y, grad_out, (True,))
        pruned, (grad_x,) = op.backward(params, [x], y, grad_out, (False,))
        assert grad_x is None
        for key in full:
            np.testing.assert_array_equal(full[key], pruned[key])


class TestActivation:
    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "identity"])
    def test_shape_preserved(self, kind):
        assert Activation(kind).output_shape((3, 4)) == (3, 4)

    def test_relu(self):
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(
            Activation("relu").forward({}, x), [[0.0, 2.0]]
        )

    def test_sigmoid_bounds(self):
        x = np.array([[-100.0, 0.0, 100.0]], dtype=np.float32)
        y = Activation("sigmoid").forward({}, x)
        assert 0.0 <= y.min() and y.max() <= 1.0
        assert y[0, 1] == pytest.approx(0.5)

    def test_identity_free(self):
        assert Activation("identity").flops((100,)) == 0
        assert Activation("relu").flops((100,)) == 100

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("swish")


class TestElementwise:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("add", [[3.0, -1.0]]),
            ("sub", [[-1.0, 5.0]]),
            ("mul", [[2.0, -6.0]]),
            ("absdiff", [[1.0, 5.0]]),
        ],
    )
    def test_semantics(self, kind, expected):
        a = np.array([[1.0, 2.0]], dtype=np.float32)
        b = np.array([[2.0, -3.0]], dtype=np.float32)
        np.testing.assert_allclose(Elementwise(kind).forward({}, a, b), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Elementwise("add").output_shape((3,), (4,))

    def test_flops_one_per_element(self):
        assert Elementwise("mul").flops((4, 5), (4, 5)) == 20


class TestDot:
    def test_scalar_output(self):
        a = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        b = np.array([[4.0, 5.0, 6.0]], dtype=np.float32)
        assert Dot().forward({}, a, b)[0, 0] == pytest.approx(32.0)

    def test_shape(self):
        assert Dot().output_shape((6,), (2, 3)) == (1,)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Dot().output_shape((3,), (4,))

    def test_macs(self):
        assert Dot().macs((8,), (8,)) == 8


class TestConcatFlatten:
    def test_concat(self):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.zeros((2, 2), dtype=np.float32)
        out = Concat().forward({}, a, b)
        assert out.shape == (2, 5)
        assert Concat().output_shape((3,), (2,)) == (5,)

    def test_flatten(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        out = Flatten().forward({}, x)
        assert out.shape == (2, 12)
        assert Flatten().output_shape((3, 4)) == (12,)


class TestScoreHead:
    def test_sigmoid_diff_is_match_probability(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=np.float32)
        y = ScoreHead("sigmoid_diff").forward({}, x)
        assert y.shape == (2, 1)
        assert y[0, 0] > 0.5 > y[1, 0]

    def test_sigmoid(self):
        x = np.array([[0.0]], dtype=np.float32)
        assert ScoreHead("sigmoid").forward({}, x)[0, 0] == pytest.approx(0.5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScoreHead("sigmoid_diff").output_shape((3,))
        with pytest.raises(ValueError):
            ScoreHead("sigmoid").output_shape((2,))
        assert ScoreHead("sigmoid_diff").output_shape((2,)) == (1,)

    def test_no_parameters(self):
        assert ScoreHead("sigmoid").weight_params() == 0


def test_registry_covers_all_ops():
    for name in (
        "Input", "Dense", "Conv2D", "Activation", "Elementwise", "Dot",
        "Concat", "Flatten", "ScoreHead",
    ):
        assert name in OP_REGISTRY
