"""Tests for worker-side local optimizers (momentum / Adam)."""

import numpy as np
import pytest

from repro.fl import FederatedTrainer, HonestWorker
from repro.nn import SGD, Adam, build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation, model_fn


class TestWorkerOptimizers:
    def test_default_matches_plain_sgd(self):
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        plain = make_federation(num_workers=1, seed=1)[0][0]
        explicit = make_federation(
            num_workers=1, seed=1,
            worker_kwargs={"optimizer": SGD(lr=0.1)},
        )[0][0]
        np.testing.assert_allclose(
            plain.compute_update(theta).gradient,
            explicit.compute_update(theta).gradient,
        )

    def test_momentum_changes_update(self):
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        plain = make_federation(num_workers=1, seed=1, local_iters=4)[0][0]
        momentum = make_federation(
            num_workers=1, seed=1, local_iters=4,
            worker_kwargs={"optimizer": SGD(lr=0.1, momentum=0.9)},
        )[0][0]
        g_plain = plain.compute_update(theta).gradient
        g_mom = momentum.compute_update(theta).gradient
        assert not np.allclose(g_plain, g_mom)
        # momentum amplifies consistent directions
        assert np.linalg.norm(g_mom) > np.linalg.norm(g_plain)

    def test_optimizer_state_reset_between_rounds(self):
        worker = make_federation(
            num_workers=1, seed=2, local_iters=2,
            worker_kwargs={"optimizer": SGD(lr=0.1, momentum=0.9)},
        )[0][0]
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        g1 = worker.compute_update(theta).gradient
        g2 = worker.compute_update(theta).gradient
        # same params, fresh momentum: updates differ only through batch
        # sampling, not through carried-over velocity blowup
        assert np.linalg.norm(g2) < 3 * np.linalg.norm(g1)

    def test_adam_worker_trains_in_federation(self):
        workers, _, test = make_federation(
            num_workers=3, local_iters=3,
            worker_kwargs={"optimizer": Adam(lr=0.05)},
        )
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            server_lr=0.1,
        )
        history = trainer.run(25, eval_every=25)
        assert history.final_accuracy() > 0.7
