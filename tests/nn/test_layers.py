"""Unit tests for individual layers, including gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestDense:
    def test_forward_matches_matmul(self):
        layer = Dense(4, 3, _rng())
        x = _rng(1).normal(size=(5, 4))
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.params["W"] + layer.params["b"]
        )

    def test_backward_gradients(self):
        layer = Dense(4, 3, _rng())
        x = _rng(1).normal(size=(5, 4))
        layer.forward(x)
        g = _rng(2).normal(size=(5, 3))
        gx = layer.backward(g)
        np.testing.assert_allclose(layer.grads["W"], x.T @ g)
        np.testing.assert_allclose(layer.grads["b"], g.sum(axis=0))
        np.testing.assert_allclose(gx, g @ layer.params["W"].T)

    def test_rejects_bad_input_shape(self):
        layer = Dense(4, 3, _rng())
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2, _rng())
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_eval_forward_does_not_cache(self):
        layer = Dense(2, 2, _rng())
        layer.forward(np.zeros((1, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestReLU:
    def test_roundtrip(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        out = layer.forward(x)
        np.testing.assert_array_equal(out, [[0, 2], [3, 0]])
        g = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(g, [[0, 1], [1, 0]])


class TestFlatten:
    def test_shapes(self):
        layer = Flatten()
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


def _naive_conv(x, W, b, stride, pad):
    n, c, h, w = x.shape
    oc, _, kh, kw = W.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for bi in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[bi, o, i, j] = (patch * W[o]).sum() + b[o]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_naive(self, stride, pad):
        layer = Conv2d(2, 3, kernel_size=3, rng=_rng(), stride=stride, padding=pad)
        x = _rng(1).normal(size=(2, 2, 7, 7))
        got = layer.forward(x)
        want = _naive_conv(x, layer.params["W"], layer.params["b"], stride, pad)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_backward_bias_grad(self):
        layer = Conv2d(1, 2, kernel_size=3, rng=_rng())
        x = _rng(1).normal(size=(2, 1, 5, 5))
        out = layer.forward(x)
        g = np.ones_like(out)
        layer.backward(g)
        np.testing.assert_allclose(layer.grads["b"], g.sum(axis=(0, 2, 3)))

    def test_input_gradient_adjoint(self):
        # <conv(x), y> == <x, conv_backward(y)> when bias is zero.
        layer = Conv2d(2, 2, kernel_size=3, rng=_rng(), padding=1)
        layer.params["b"][:] = 0.0
        x = _rng(1).normal(size=(2, 2, 6, 6))
        out = layer.forward(x)
        y = _rng(2).normal(size=out.shape)
        gx = layer.backward(y)
        assert float((out * y).sum()) == pytest.approx(float((x * gx).sum()), rel=1e-9)

    def test_rejects_wrong_channels(self):
        layer = Conv2d(3, 2, kernel_size=3, rng=_rng())
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8)))


class TestMaxPool2d:
    def test_forward_known(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert layer.forward(x)[0, 0, 0, 0] == 4.0

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x)
        g = layer.backward(np.array([[[[5.0]]]]))
        np.testing.assert_array_equal(g, [[[[0, 0], [0, 5.0]]]])

    def test_shape(self):
        layer = MaxPool2d(2)
        x = _rng(0).normal(size=(3, 4, 8, 8))
        assert layer.forward(x).shape == (3, 4, 4, 4)


class TestGlobalAvgPool2d:
    def test_forward(self):
        layer = GlobalAvgPool2d()
        x = _rng(0).normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(2, 3)))

    def test_backward_spreads_uniformly(self):
        layer = GlobalAvgPool2d()
        x = np.zeros((1, 1, 2, 2))
        layer.forward(x)
        g = layer.backward(np.array([[4.0]]))
        np.testing.assert_allclose(g, np.ones((1, 1, 2, 2)))


class TestBatchNorm:
    def test_training_normalizes(self):
        layer = BatchNorm(3)
        x = _rng(0).normal(loc=5.0, scale=3.0, size=(64, 3))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch(self):
        layer = BatchNorm(2, momentum=0.5)
        x = np.full((8, 2), 10.0)
        layer.forward(x, training=True)
        np.testing.assert_allclose(layer.running_mean, [5.0, 5.0])

    def test_eval_uses_running_stats(self):
        layer = BatchNorm(2)
        x = _rng(1).normal(size=(32, 2))
        for _ in range(50):
            layer.forward(x, training=True)
        out_eval = layer.forward(x, training=False)
        out_train = layer.forward(x, training=True)
        np.testing.assert_allclose(out_eval, out_train, atol=0.2)

    def test_4d_input(self):
        layer = BatchNorm(3)
        x = _rng(2).normal(size=(4, 3, 5, 5))
        out = layer.forward(x, training=True)
        assert out.shape == x.shape
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)

    def test_backward_shape_and_zero_mean(self):
        layer = BatchNorm(3)
        x = _rng(3).normal(size=(16, 3))
        layer.forward(x, training=True)
        g = _rng(4).normal(size=(16, 3))
        gx = layer.backward(g)
        assert gx.shape == x.shape
        # BN input gradient is orthogonal to constants per feature.
        np.testing.assert_allclose(gx.mean(axis=0), 0.0, atol=1e-10)

    def test_rejects_3d(self):
        layer = BatchNorm(3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3, 4)))
