"""Tests for S4.5 dynamic server re-selection in the trainer."""

import pytest

from repro.core import DetectionConfig, FIFLConfig, FIFLMechanism
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation


def fifl_mech(gamma=0.4):
    return FIFLMechanism(
        FIFLConfig(detection=DetectionConfig(threshold=0.0), gamma=gamma)
    )


class TestReselection:
    def test_requires_mechanism_with_recommendation(self):
        workers, _, test = make_federation(num_workers=4)
        model = build_logreg(N_FEATURES, N_CLASSES)
        with pytest.raises(ValueError):
            FederatedTrainer(
                model, WorkerPopulation.from_workers(workers), [0], test_data=test,
                reselect_every=2,
            )

    def test_rejects_negative_interval(self):
        workers, _, test = make_federation(num_workers=4)
        model = build_logreg(N_FEATURES, N_CLASSES)
        with pytest.raises(ValueError):
            FederatedTrainer(
                model, WorkerPopulation.from_workers(workers), [0], test_data=test,
                mechanism=fifl_mech(), reselect_every=-1,
            )

    def test_attacker_server_gets_replaced(self):
        # start with the ATTACKER in the server cluster; after a few rounds
        # its reputation collapses and re-selection evicts it
        workers, _, test = make_federation(num_workers=6, seed=3)
        workers[0] = make_federation(
            num_workers=6, seed=3,
            worker_cls=SignFlippingWorker, worker_kwargs={"p_s": 6.0},
        )[0][0]
        model = build_logreg(N_FEATURES, N_CLASSES, seed=3)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=fifl_mech(), server_lr=0.1, reselect_every=3,
        )
        assert 0 in trainer.server_ranks
        trainer.run(12, eval_every=12)
        assert 0 not in trainer.server_ranks
        assert len(trainer.server_ranks) == 2

    def test_static_cluster_without_interval(self):
        workers, _, test = make_federation(num_workers=4)
        model = build_logreg(N_FEATURES, N_CLASSES)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            mechanism=fifl_mech(),
        )
        trainer.run(5, eval_every=5)
        assert trainer.server_ranks == [0]

    def test_topology_follows_reselection(self):
        workers, _, test = make_federation(num_workers=6, seed=3)
        workers[0] = make_federation(
            num_workers=6, seed=3,
            worker_cls=SignFlippingWorker, worker_kwargs={"p_s": 6.0},
        )[0][0]
        model = build_logreg(N_FEATURES, N_CLASSES, seed=3)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=fifl_mech(), server_lr=0.1, reselect_every=2,
        )
        trainer.run(8, eval_every=8)
        servers = {
            n for n, d in trainer.topology.nodes(data=True)
            if "server" in d["role"] and "worker" in d["role"] and
            n in trainer.server_ranks
        }
        assert sorted(servers) == trainer.server_ranks

    def test_training_still_converges_with_reselection(self):
        workers, _, test = make_federation(num_workers=5, seed=4)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=4)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=fifl_mech(), server_lr=0.1, reselect_every=5,
        )
        history = trainer.run(30, eval_every=30)
        assert history.final_accuracy() > 0.7
