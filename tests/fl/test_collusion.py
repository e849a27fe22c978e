"""Tests for the colluding small-perturbation attacker."""

import numpy as np
import pytest

from repro.core import detection_scores_matrix
from repro.fl import ColludingAttacker, HonestWorker, split_gradient
from repro.fl.gradients import slice_offsets
from repro.nn import build_logreg

from tests.helpers import N_CLASSES, N_FEATURES, local_update, make_federation, model_fn


def colluder(seed=0, wid=0, epsilon=0.3, direction_seed=42):
    shards = make_federation(num_workers=2, seed=seed)[1]
    return ColludingAttacker(
        wid, shards[wid], model_fn(seed), lr=0.1,
        epsilon=epsilon, direction_seed=direction_seed, seed=seed + 100 + wid,
    )


class TestColludingAttacker:
    @staticmethod
    def _bias(wid, epsilon=0.3, direction_seed=42):
        # twin workers share the RNG seed, so the honest component of the
        # (stochastic) local gradient is identical; the difference between
        # the attacked upload and the twin's honest gradient IS the bias
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        attacked = colluder(wid=wid, epsilon=epsilon,
                            direction_seed=direction_seed)
        shards = make_federation(num_workers=2)[1]
        twin = HonestWorker(wid, shards[wid], model_fn(0), lr=0.1, seed=100 + wid)
        honest = local_update(twin, theta).gradient
        bias = local_update(attacked, theta).gradient - honest
        return honest, bias

    def test_same_seed_same_planted_direction(self):
        _, bias_a = self._bias(wid=0)
        _, bias_b = self._bias(wid=1)
        cos = bias_a @ bias_b / np.linalg.norm(bias_a) / np.linalg.norm(bias_b)
        assert cos == pytest.approx(1.0)

    def test_perturbation_is_epsilon_scaled(self):
        honest, bias = self._bias(wid=0, epsilon=0.25)
        assert np.linalg.norm(bias) == pytest.approx(
            0.25 * np.linalg.norm(honest), rel=1e-9
        )

    def test_small_epsilon_evades_cosine_detection(self):
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        honest = make_federation(num_workers=2, seed=0)[0][1]
        bench_grad = local_update(honest, theta).gradient
        w = colluder(epsilon=0.2)
        attack_grad = local_update(w, theta).gradient
        servers = np.array([0, 1])
        score = detection_scores_matrix(
            np.array([5]), attack_grad[None, :],
            slice_offsets(attack_grad.size, 2), servers, servers,
            split_gradient(bench_grad, 2), "cosine",
        )[0]
        assert score >= 0.0  # the documented evasion at S_y = 0

    def test_marked_attacked(self):
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        assert local_update(colluder(), theta).attacked

    def test_validation(self):
        shards = make_federation(num_workers=1)[1]
        with pytest.raises(ValueError):
            ColludingAttacker(0, shards[0], model_fn(), epsilon=0.0)
