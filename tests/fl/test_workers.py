"""Tests for worker agents and attacker behaviours."""

import numpy as np
import pytest

from repro.fl import (
    DataPoisonWorker,
    FreeRiderWorker,
    HonestWorker,
    ProbabilisticAttacker,
    SignFlippingWorker,
)
from repro.nn import SoftmaxCrossEntropy

from tests.helpers import local_update, make_federation, model_fn


class TestHonestWorker:
    def test_gradient_shape_matches_model(self, global_model):
        workers, _, _ = make_federation(num_workers=2)
        theta = global_model.get_flat_params()
        upd = local_update(workers[0], theta)
        assert upd.gradient.shape == theta.shape
        assert not upd.attacked

    def test_gradient_equals_sum_of_step_gradients(self, global_model):
        # (theta0 - thetaK)/lr must equal the accumulated SGD gradient:
        # replay the same draws on a twin and sum its per-step gradients.
        worker = make_federation(num_workers=2, local_iters=3)[0][0]
        twin = make_federation(num_workers=2, local_iters=3)[0][0]
        theta = global_model.get_flat_params()
        upd = local_update(worker, theta)
        model, loss_fn = twin.model_fn(), SoftmaxCrossEntropy()
        model.set_flat_params(theta)
        total = np.zeros_like(theta)
        for _ in range(twin.local_iters):
            idx = twin.rng.integers(0, len(twin.dataset), size=twin.batch_size)
            loss_fn(model.forward(twin.dataset.x[idx]), twin.dataset.y[idx])
            model.backward(loss_fn.backward())
            step = model.get_flat_grads()
            total += step
            model.apply_flat_grads(step, lr=twin.lr)
        np.testing.assert_allclose(upd.gradient, total, rtol=1e-9, atol=1e-12)

    def test_gradient_descends_local_loss(self, global_model):
        workers, shards, _ = make_federation(num_workers=2, local_iters=5)
        theta = global_model.get_flat_params()
        upd = local_update(workers[0], theta)
        from repro.fl import evaluate

        loss_before, _ = evaluate(global_model, shards[0])
        global_model.set_flat_params(theta - 0.1 * upd.gradient)
        loss_after, _ = evaluate(global_model, shards[0])
        assert loss_after < loss_before

    def test_num_samples_truthful(self):
        workers, shards, _ = make_federation(num_workers=3)
        for w, s in zip(workers, shards):
            assert w.num_samples == len(s)

    def test_validation(self):
        workers, shards, _ = make_federation(num_workers=2)
        with pytest.raises(ValueError):
            HonestWorker(0, shards[0], model_fn(), lr=0.0)
        with pytest.raises(ValueError):
            HonestWorker(0, shards[0], model_fn(), batch_size=0)
        with pytest.raises(ValueError):
            HonestWorker(0, shards[0], model_fn(), local_iters=0)

    def test_deterministic_given_seed(self, global_model):
        theta = global_model.get_flat_params()
        w1 = make_federation(num_workers=1, seed=5)[0][0]
        w2 = make_federation(num_workers=1, seed=5)[0][0]
        np.testing.assert_array_equal(
            local_update(w1, theta).gradient, local_update(w2, theta).gradient
        )


class TestSignFlipping:
    def test_gradient_is_negated_and_scaled(self, global_model):
        theta = global_model.get_flat_params()
        honest = make_federation(num_workers=1, seed=3)[0][0]
        attacker = make_federation(
            num_workers=1, seed=3, worker_cls=SignFlippingWorker,
            worker_kwargs={"p_s": 4.0},
        )[0][0]
        g_h = local_update(honest, theta).gradient
        g_a = local_update(attacker, theta).gradient
        np.testing.assert_allclose(g_a, -4.0 * g_h)

    def test_marked_attacked(self, global_model):
        theta = global_model.get_flat_params()
        attacker = make_federation(
            num_workers=1, worker_cls=SignFlippingWorker
        )[0][0]
        assert local_update(attacker, theta).attacked
        assert attacker.is_malicious

    def test_rejects_nonpositive_intensity(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            SignFlippingWorker(0, shards[0], model_fn(), p_s=0.0)


class TestDataPoison:
    def test_labels_flipped_at_rate(self):
        worker = make_federation(
            num_workers=1, worker_cls=DataPoisonWorker, worker_kwargs={"p_d": 0.4}
        )[0][0]
        clean = make_federation(num_workers=1)[0][0]
        frac = (worker.dataset.y != clean.dataset.y).mean()
        assert frac == pytest.approx(0.4, abs=0.01)

    def test_zero_rate_not_malicious(self):
        worker = make_federation(
            num_workers=1, worker_cls=DataPoisonWorker, worker_kwargs={"p_d": 0.0}
        )[0][0]
        assert not worker.is_malicious

    def test_poisoned_gradient_deviates_more(self, global_model):
        # the core geometric fact FIFL relies on: more poison -> bigger
        # deviation from the honest gradient
        theta = global_model.get_flat_params()
        honest = make_federation(num_workers=1, seed=2, local_iters=8)[0][0]
        g_h = local_update(honest, theta).gradient

        def deviation(p_d):
            w = make_federation(
                num_workers=1, seed=2, local_iters=8,
                worker_cls=DataPoisonWorker,
                worker_kwargs={"p_d": p_d, "poison_seed": 1},
            )[0][0]
            return np.linalg.norm(local_update(w, theta).gradient - g_h)

        assert deviation(0.8) > deviation(0.2)

    def test_rejects_bad_rate(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            DataPoisonWorker(0, shards[0], model_fn(), p_d=1.5)


class TestFreeRider:
    def test_no_training_happens(self, global_model):
        theta = global_model.get_flat_params()
        _, shards, _ = make_federation(num_workers=1)

        def no_model():
            raise AssertionError("a free-rider never builds a model")

        rider = FreeRiderWorker(0, shards[0], no_model, seed=0)
        upd = local_update(rider, theta)
        assert upd.attacked
        assert np.linalg.norm(upd.gradient) < 1.0

    def test_rejects_negative_noise(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            FreeRiderWorker(0, shards[0], model_fn(), noise_scale=-1.0)


class TestProbabilisticAttacker:
    def test_attack_rate_matches_p_a(self, global_model):
        theta = global_model.get_flat_params()
        attacker = make_federation(
            num_workers=1,
            worker_cls=ProbabilisticAttacker,
            worker_kwargs={"p_a": 0.3, "p_s": 2.0},
        )[0][0]
        flags = [local_update(attacker, theta).attacked for _ in range(400)]
        assert np.mean(flags) == pytest.approx(0.3, abs=0.07)

    def test_honest_rounds_are_honest_gradients(self, global_model):
        theta = global_model.get_flat_params()
        attacker = make_federation(
            num_workers=1, seed=4,
            worker_cls=ProbabilisticAttacker,
            worker_kwargs={"p_a": 0.0},
        )[0][0]
        honest = make_federation(num_workers=1, seed=4)[0][0]
        np.testing.assert_allclose(
            local_update(attacker, theta).gradient,
            local_update(honest, theta).gradient,
        )

    def test_validation(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            ProbabilisticAttacker(0, shards[0], model_fn(), p_a=2.0)
        with pytest.raises(ValueError):
            ProbabilisticAttacker(0, shards[0], model_fn(), p_s=-1.0)
