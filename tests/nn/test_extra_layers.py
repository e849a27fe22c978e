"""Tests for AvgPool2d, Tanh, and LeakyReLU."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Dense,
    LeakyReLU,
    Sequential,
    SoftmaxCrossEntropy,
    Tanh,
)

from tests.nn.gradcheck import analytic_gradient, max_relative_error, numerical_gradient


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAvgPool2d:
    def test_forward_known(self):
        layer = AvgPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert layer.forward(x)[0, 0, 0, 0] == pytest.approx(2.5)

    def test_backward_spreads_uniformly(self):
        layer = AvgPool2d(2)
        x = np.zeros((1, 1, 2, 2))
        layer.forward(x)
        g = layer.backward(np.array([[[[8.0]]]]))
        np.testing.assert_allclose(g, np.full((1, 1, 2, 2), 2.0))

    def test_adjoint_property(self):
        layer = AvgPool2d(2)
        x = _rng(0).normal(size=(2, 3, 6, 6))
        out = layer.forward(x)
        y = _rng(1).normal(size=out.shape)
        gx = layer.backward(y)
        assert float((out * y).sum()) == pytest.approx(float((x * gx).sum()), rel=1e-10)

    def test_shape(self):
        layer = AvgPool2d(3)
        assert layer.forward(np.zeros((2, 4, 9, 9))).shape == (2, 4, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            AvgPool2d(0)
        layer = AvgPool2d(2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 1, 1)))


class TestTanh:
    def test_forward(self):
        layer = Tanh()
        x = np.array([0.0, 100.0, -100.0])
        np.testing.assert_allclose(layer.forward(x), [0.0, 1.0, -1.0], atol=1e-12)

    def test_backward_derivative(self):
        layer = Tanh()
        x = np.array([0.5, -1.2])
        out = layer.forward(x)
        g = layer.backward(np.ones(2))
        np.testing.assert_allclose(g, 1.0 - out**2)

    def test_gradcheck_in_model(self):
        rng = _rng(1)
        model = Sequential([Dense(4, 6, rng), Tanh(), Dense(6, 3, rng)])
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        _, grad = analytic_gradient(model, x, y)
        idx = rng.choice(grad.size, size=15, replace=False)
        num = numerical_gradient(model, x, y, indices=idx)
        assert max_relative_error(grad[idx], num, floor=1e-6) < 1e-4


class TestLeakyReLU:
    def test_forward_values(self):
        layer = LeakyReLU(alpha=0.1)
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(layer.forward(x), [-0.2, 0.0, 3.0])

    def test_backward_slopes(self):
        layer = LeakyReLU(alpha=0.1)
        x = np.array([-1.0, 2.0])
        layer.forward(x)
        g = layer.backward(np.ones(2))
        np.testing.assert_allclose(g, [0.1, 1.0])

    def test_alpha_zero_is_relu(self):
        layer = LeakyReLU(alpha=0.0)
        x = np.array([-5.0, 5.0])
        np.testing.assert_allclose(layer.forward(x), [0.0, 5.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            LeakyReLU(alpha=1.0)
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.1)

    def test_trains_in_model(self):
        rng = _rng(2)
        model = Sequential([Dense(6, 8, rng), LeakyReLU(0.05), Dense(8, 2, rng)])
        x = rng.normal(size=(64, 6))
        y = (x[:, 0] > 0).astype(int)
        loss_fn = SoftmaxCrossEntropy()
        first = None
        for _ in range(40):
            loss = loss_fn(model.forward(x, training=True), y)
            first = first if first is not None else loss
            model.backward(loss_fn.backward())
            model.apply_flat_grads(model.get_flat_grads(), lr=0.5)
        assert loss < first
