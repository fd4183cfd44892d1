"""Unit tests for the NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)


def numerical_gradient(forward_fn, x, grad_output, eps=1e-5):
    """Central-difference gradient of sum(forward(x) * grad_output) w.r.t. x."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        plus = np.sum(forward_fn(x) * grad_output)
        flat_x[i] = original - eps
        minus = np.sum(forward_fn(x) * grad_output)
        flat_x[i] = original
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


class TestLinear:
    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        grad_out = rng.standard_normal((2, 3))
        layer.forward(x, training=True)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(lambda v: layer.forward(v, training=True), x.copy(),
                                     grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_weight_gradient(self):
        rng = np.random.default_rng(2)
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        grad_out = rng.standard_normal((2, 3))
        layer.forward(x, training=True)
        layer.backward(grad_out)
        expected = x.T @ grad_out
        np.testing.assert_allclose(layer.weight.grad, expected, atol=1e-10)
        np.testing.assert_allclose(layer.bias.grad, grad_out.sum(axis=0), atol=1e-10)

    def test_shape_validation(self):
        layer = Linear(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_requires_training_forward(self):
        layer = Linear(4, 3)
        layer.forward(np.zeros((2, 4)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestConv2d:
    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        layer = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5))
        grad_out = rng.standard_normal((2, 3, 5, 5))
        layer.forward(x, training=True)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(lambda v: layer.forward(v, training=True), x.copy(),
                                     grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        layer = Conv2d(2, 2, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        grad_out = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x, training=True)
        layer.backward(grad_out)
        analytic = layer.weight.grad.copy()

        w = layer.weight.value
        numeric = np.zeros_like(w)
        eps = 1e-5
        for idx in np.ndindex(w.shape):
            original = w[idx]
            w[idx] = original + eps
            plus = np.sum(layer.forward(x, training=True) * grad_out)
            w[idx] = original - eps
            minus = np.sum(layer.forward(x, training=True) * grad_out)
            w[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_strided_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1)
        out = layer.forward(np.zeros((2, 3, 16, 16)))
        assert out.shape == (2, 8, 8, 8)

    def test_depthwise_groups(self):
        rng = np.random.default_rng(5)
        layer = Conv2d(4, 4, 3, padding=1, groups=4, rng=rng)
        x = rng.standard_normal((1, 4, 6, 6))
        out = layer.forward(x)
        assert out.shape == (1, 4, 6, 6)
        # Each output channel depends only on its own input channel.
        x2 = x.copy()
        x2[:, 0] += 10.0
        out2 = layer.forward(x2)
        np.testing.assert_allclose(out[:, 1:], out2[:, 1:])
        assert not np.allclose(out[:, 0], out2[:, 0])

    def test_depthwise_gradient(self):
        rng = np.random.default_rng(6)
        layer = Conv2d(2, 2, 3, padding=1, groups=2, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        grad_out = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x, training=True)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(lambda v: layer.forward(v, training=True), x.copy(),
                                     grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2)

    def test_channel_validation(self):
        layer = Conv2d(3, 4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8)))


class TestBatchNorm:
    def test_training_normalises(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm2d(4)
        x = rng.standard_normal((8, 4, 5, 5)) * 3 + 2
        out = bn.forward(x, training=True)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-7
        assert np.abs(out.std(axis=(0, 2, 3)) - 1).max() < 1e-3

    def test_running_stats_used_in_eval(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn.forward(rng.standard_normal((16, 2, 4, 4)) * 2 + 1, training=True)
        out = bn.forward(np.ones((1, 2, 4, 4)), training=False)
        assert np.all(np.isfinite(out))
        assert bn.running_mean == pytest.approx(np.ones(2), abs=0.3)

    def test_eval_bit_identical_to_broadcast_expression(self):
        # Eval runs the training path's four operations in place; the bits
        # must match the plain broadcast expression on contiguous and
        # transposed inputs, and the input must be left alone.
        rng = np.random.default_rng(10)
        bn = BatchNorm2d(5)
        bn.running_mean = rng.standard_normal(5)
        bn.running_var = rng.random(5) + 0.1
        bn.gamma.value[:] = rng.standard_normal(5)
        bn.beta.value[:] = rng.standard_normal(5)
        shape = (4, 5, 3, 6)
        for x in (rng.standard_normal(shape),
                  rng.standard_normal((4, 3, 6, 5)).transpose(0, 3, 1, 2),
                  np.zeros((0, 5, 3, 6))):
            before = x.copy()
            std = np.sqrt(bn.running_var + bn.eps)
            x_hat = (x - bn.running_mean[None, :, None, None]) / std[None, :, None, None]
            expected = (bn.gamma.value[None, :, None, None] * x_hat
                        + bn.beta.value[None, :, None, None])
            out = bn.forward(x, training=False)
            assert out.shape == x.shape
            assert np.array_equal(out, expected)
            assert np.array_equal(x, before)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm2d(2)
        x = rng.standard_normal((3, 2, 3, 3))
        grad_out = rng.standard_normal((3, 2, 3, 3))
        bn.forward(x, training=True)
        analytic = bn.backward(grad_out)
        numeric = numerical_gradient(lambda v: bn.forward(v, training=True), x.copy(),
                                     grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3).forward(np.zeros((1, 2, 4, 4)))


class TestActivationsAndPooling:
    def test_relu_forward_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [0.5, -3.0]])
        out = relu.forward(x, training=True)
        np.testing.assert_allclose(out, [[0, 2], [0.5, 0]])
        grad = relu.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0, 1], [1, 0]])

    def test_maxpool_forward(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_max(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool.forward(x, training=True)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1  # position of 5
        assert grad[0, 0, 3, 3] == 1  # position of 15

    def test_maxpool_gradient_numerical(self):
        rng = np.random.default_rng(10)
        pool = MaxPool2d(2)
        x = rng.standard_normal((2, 3, 4, 4))
        grad_out = rng.standard_normal((2, 3, 2, 2))
        pool.forward(x, training=True)
        analytic = pool.backward(grad_out)
        numeric = numerical_gradient(lambda v: pool.forward(v, training=True), x.copy(),
                                     grad_out, eps=1e-6)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_maxpool_invalid_size(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 5)))

    def test_avgpool_forward_backward(self):
        pool = AvgPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x, training=True)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        np.testing.assert_allclose(grad, 0.25)

    def test_global_avg_pool(self):
        gap = GlobalAvgPool2d()
        x = np.arange(32, dtype=float).reshape(2, 2, 2, 4)
        out = gap.forward(x, training=True)
        assert out.shape == (2, 2)
        grad = gap.backward(np.ones((2, 2)))
        np.testing.assert_allclose(grad, 1.0 / 8)

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
        out = flat.forward(x, training=True)
        assert out.shape == (2, 12)
        back = flat.backward(out)
        np.testing.assert_allclose(back, x)
