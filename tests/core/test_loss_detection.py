"""Tests for the exact marginal-loss (Zeno-style) detector."""

import numpy as np
import pytest

from repro.core import LossBasedDetector
from repro.nn import build_logreg

from tests.helpers import N_CLASSES, N_FEATURES, local_update, make_federation


def make_detector(test, step=0.1, threshold=0.0):
    return LossBasedDetector(
        lambda: build_logreg(N_FEATURES, N_CLASSES, seed=0),
        test, step=step, threshold=threshold,
    )


class TestLossBasedDetector:
    def test_honest_gradient_scores_positive(self):
        workers, _, test = make_federation(num_workers=2, local_iters=4)
        det = make_detector(test)
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        g = local_update(workers[0], theta).gradient
        assert det.score(theta, g) > 0

    def test_flipped_gradient_scores_negative(self):
        workers, _, test = make_federation(num_workers=2, local_iters=4)
        det = make_detector(test)
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        g = local_update(workers[0], theta).gradient
        assert det.score(theta, -4.0 * g) < 0

    def test_detect_separates_workers(self):
        workers, _, test = make_federation(num_workers=4, local_iters=4)
        det = make_detector(test)
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        grads = {w.worker_id: local_update(w, theta).gradient for w in workers}
        grads[99] = -6.0 * grads[0]  # synthetic attacker
        scores, accepted = det.detect(theta, grads)
        assert accepted[99] is False
        assert all(accepted[w.worker_id] for w in workers)
        assert scores[99] < min(scores[w.worker_id] for w in workers)

    def test_agrees_with_first_order_score_in_sign(self):
        # the paper's Taylor argument: <grad_val, G_i> approximates the
        # exact loss difference; signs should agree for honest vs flipped
        from repro.nn import SoftmaxCrossEntropy

        workers, _, test = make_federation(num_workers=3, local_iters=4)
        det = make_detector(test, step=0.05)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        theta = model.get_flat_params()
        loss_fn = SoftmaxCrossEntropy()
        loss_fn(model.forward(test.x, training=True), test.y)
        model.backward(loss_fn.backward())
        val_grad = model.get_flat_grads()
        for w in workers:
            g = local_update(w, theta).gradient
            exact = det.score(theta, g)
            first_order = float(val_grad @ (det.step * g))
            assert np.sign(exact) == np.sign(first_order)

    def test_zero_gradient_scores_zero(self):
        _, _, test = make_federation(num_workers=2)
        det = make_detector(test)
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        assert det.score(theta, np.zeros_like(theta)) == pytest.approx(0.0)

    def test_validation(self):
        _, _, test = make_federation(num_workers=2)
        with pytest.raises(ValueError):
            make_detector(test, step=0.0)
        from repro.datasets import Dataset

        empty = Dataset(np.zeros((0, N_FEATURES)), np.zeros(0, dtype=int), N_CLASSES)
        with pytest.raises(ValueError):
            LossBasedDetector(
                lambda: build_logreg(N_FEATURES, N_CLASSES, seed=0), empty
            )
