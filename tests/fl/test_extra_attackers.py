"""Tests for the extended attacker roster and systematic poisoning."""

import numpy as np
import pytest

from repro.core import DetectionConfig, FIFLConfig, FIFLMechanism
from repro.datasets import flip_labels
from repro.fl import FederatedTrainer, GaussianNoiseAttacker, ReplayFreeRider
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, local_update, make_federation, model_fn


class TestGaussianNoiseAttacker:
    def test_norm_calibrated(self, seed=0):
        workers, _, _ = make_federation(num_workers=2, seed=seed)
        attacker = make_federation(
            num_workers=2, seed=seed,
            worker_cls=GaussianNoiseAttacker, worker_kwargs={"scale": 1.0},
        )[0][0]
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        honest_norm = np.linalg.norm(local_update(workers[0], theta).gradient)
        noise_norm = np.linalg.norm(local_update(attacker, theta).gradient)
        assert noise_norm == pytest.approx(honest_norm, rel=0.5)

    def test_marked_attacked(self):
        attacker = make_federation(
            num_workers=1, worker_cls=GaussianNoiseAttacker
        )[0][0]
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        assert local_update(attacker, theta).attacked
        assert attacker.is_malicious

    def test_detected_by_cosine_threshold(self):
        # random directions have near-zero cosine vs the benchmark, so a
        # small positive S_y filters them
        workers, _, test = make_federation(num_workers=6, seed=1)
        workers[3] = make_federation(
            num_workers=6, seed=1, worker_cls=GaussianNoiseAttacker
        )[0][3]
        mech = FIFLMechanism(
            FIFLConfig(detection=DetectionConfig(threshold=0.15), gamma=0.3)
        )
        model = build_logreg(N_FEATURES, N_CLASSES, seed=1)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=mech, server_lr=0.1,
        )
        trainer.run(10, eval_every=10)
        rejected = sum(1 for rec in mech.records if not rec.accepted[3])
        assert rejected >= 8

    def test_validation(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            GaussianNoiseAttacker(0, shards[0], model_fn(), scale=0.0)


class TestReplayFreeRider:
    def test_first_round_uploads_zeros(self):
        rider = make_federation(num_workers=1, worker_cls=ReplayFreeRider,
                                worker_kwargs={"server_lr": 0.1})[0][0]
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        upd = local_update(rider, theta)
        np.testing.assert_array_equal(upd.gradient, 0.0)
        assert upd.attacked

    def test_replays_global_delta(self):
        rider = make_federation(num_workers=1, worker_cls=ReplayFreeRider,
                                worker_kwargs={"server_lr": 0.1})[0][0]
        theta0 = np.ones(4)
        theta1 = np.ones(4) * 0.9
        local_update(rider, theta0)
        upd = local_update(rider, theta1)
        # G = (prev - cur) / eta = (1.0 - 0.9) / 0.1 = 1.0 per coordinate
        np.testing.assert_allclose(upd.gradient, 1.0)

    def test_replay_attack_defeats_fifl(self):
        # A documented LIMITATION (DESIGN.md, EXPERIMENTS.md): the replayed
        # global gradient is very close to the new global gradient, so the
        # replay free-rider both evades a zero detection threshold AND
        # earns contribution-based rewards comparable to honest workers.
        # The paper scopes FIFL to disorganized, non-adaptive attackers;
        # this test pins the behaviour so the limitation stays visible.
        workers, _, test = make_federation(num_workers=5, seed=2)
        workers[4] = make_federation(
            num_workers=5, seed=2, worker_cls=ReplayFreeRider,
            worker_kwargs={"server_lr": 0.1},
        )[0][4]
        mech = FIFLMechanism(
            FIFLConfig(detection=DetectionConfig(threshold=0.0), gamma=0.3)
        )
        model = build_logreg(N_FEATURES, N_CLASSES, seed=2)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            mechanism=mech, server_lr=0.1,
        )
        trainer.run(8, eval_every=8)
        later_scores = [rec.scores[4] for rec in mech.records[2:]]
        assert np.mean(later_scores) > 0.0  # evades a zero threshold
        rewards = mech.cumulative_rewards()
        honest_mean = np.mean([rewards[w] for w in range(4)])
        # the free-rider is NOT driven below the honest reward level
        assert rewards[4] > 0.5 * honest_mean

    def test_validation(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            ReplayFreeRider(0, shards[0], model_fn(), server_lr=0.0)


class TestSystematicFlip:
    def test_all_flips_go_to_next_class(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=100)
        flipped = flip_labels(y, 1.0, 4, rng, systematic=True)
        np.testing.assert_array_equal(flipped, (y + 1) % 4)

    def test_exact_rate_respected(self):
        rng = np.random.default_rng(1)
        y = np.zeros(50, dtype=int)
        flipped = flip_labels(y, 0.4, 3, rng, systematic=True)
        assert (flipped != y).sum() == 20
        assert set(flipped[flipped != 0]) == {1}
