"""Gradient correctness: backprop vs central finite differences.

These are the load-bearing tests for the whole reproduction: FIFL's
detection/contribution scores are functions of raw gradient vectors, so a
backprop bug would corrupt every downstream experiment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import build_lenet, build_logreg, build_mini_resnet, build_mlp

from tests.nn.gradcheck import analytic_gradient, max_relative_error, numerical_gradient


def _check(model, x, y, n_probe=40, seed=0, tol=1e-4):
    _, g = analytic_gradient(model, x, y)
    rng = np.random.default_rng(seed)
    idx = rng.choice(g.size, size=min(n_probe, g.size), replace=False)
    num = numerical_gradient(model, x, y, indices=idx)
    err = max_relative_error(g[idx], num, floor=1e-6)
    assert err < tol, f"max relative grad error {err}"


class TestGradCheck:
    def test_logreg(self):
        rng = np.random.default_rng(0)
        model = build_logreg(6, 3, seed=1)
        _check(model, rng.normal(size=(8, 6)), rng.integers(0, 3, size=8))

    def test_mlp(self):
        rng = np.random.default_rng(1)
        model = build_mlp(5, 4, hidden=(7, 6), seed=2)
        _check(model, rng.normal(size=(9, 5)), rng.integers(0, 4, size=9))

    def test_lenet_small(self):
        rng = np.random.default_rng(2)
        model = build_lenet(num_classes=3, in_channels=1, image_size=14, seed=3)
        x = rng.normal(size=(4, 1, 14, 14))
        y = rng.integers(0, 3, size=4)
        _check(model, x, y, n_probe=25, tol=5e-4)

    def test_mini_resnet(self):
        rng = np.random.default_rng(3)
        model = build_mini_resnet(num_classes=3, in_channels=2, width=4, num_blocks=1, seed=4)
        x = rng.normal(size=(4, 2, 8, 8))
        y = rng.integers(0, 3, size=4)
        # BatchNorm batch statistics make FD slightly noisier.
        _check(model, x, y, n_probe=25, tol=2e-3)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        hidden=st.integers(2, 10),
        batch=st.integers(2, 8),
    )
    def test_property_random_mlps(self, seed, hidden, batch):
        rng = np.random.default_rng(seed)
        model = build_mlp(4, 3, hidden=(hidden,), seed=seed + 1)
        x = rng.normal(size=(batch, 4))
        y = rng.integers(0, 3, size=batch)
        _check(model, x, y, n_probe=20, seed=seed)


class TestMaxRelativeError:
    def test_identical_is_zero(self):
        a = np.array([1.0, -2.0])
        assert max_relative_error(a, a) == 0.0

    def test_scale_free(self):
        a = np.array([1e6])
        b = np.array([1.0001e6])
        assert max_relative_error(a, b) == pytest.approx(1e-4, rel=1e-2)

    def test_empty(self):
        assert max_relative_error(np.array([]), np.array([])) == 0.0
