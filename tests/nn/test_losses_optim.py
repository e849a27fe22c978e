"""Tests for the softmax cross-entropy loss."""

import numpy as np
import pytest

from repro.nn import SoftmaxCrossEntropy


class TestSoftmaxCrossEntropy:
    def test_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1]])
        labels = np.array([0])
        loss = SoftmaxCrossEntropy()(logits, labels)
        probs = np.exp(logits) / np.exp(logits).sum()
        assert loss == pytest.approx(-np.log(probs[0, 0]))

    def test_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0]])
        assert SoftmaxCrossEntropy()(logits, np.array([0])) == pytest.approx(0.0, abs=1e-9)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = SoftmaxCrossEntropy()
        loss(logits, labels)
        g = loss.backward()
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), labels] = 1.0
        np.testing.assert_allclose(g, (probs - onehot) / 6)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        loss = SoftmaxCrossEntropy()
        loss(rng.normal(size=(5, 3)), rng.integers(0, 3, size=5))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_shape_validation(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            loss(np.zeros(3), np.zeros(3, dtype=int))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()
