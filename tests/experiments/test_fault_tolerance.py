"""Tests for the fault-tolerance experiment and trainer failure support."""

import pytest

from repro.experiments import fault_tolerance
from repro.nn import build_logreg
from repro.fl import FederatedTrainer
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation


class TestFailNode:
    def test_failed_worker_stops_uploading(self):
        workers, _, test = make_federation(num_workers=4)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
        )
        trainer.fail_node(3)
        rec = trainer.run_round(0)
        assert 3 not in rec.accepted or rec.accepted.get(3) is False
        assert trainer.failed_nodes == {3}

    def test_failed_server_stalls_training(self):
        workers, _, test = make_federation(num_workers=4)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
        )
        trainer.fail_node(0)
        theta = model.get_flat_params()
        rec = trainer.run_round(0)
        assert rec.grad_norm == 0.0
        assert (model.get_flat_params() == theta).all()

    def test_rank_validation(self):
        workers, _, test = make_federation(num_workers=3)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
        )
        with pytest.raises(ValueError):
            trainer.fail_node(7)


class TestExperiment:
    def test_scenarios_present(self):
        res = fault_tolerance.run(num_workers=6, rounds=8, fail_at=3)
        assert set(res["scenarios"]) == {
            "no_failure", "worker_fails", "server_fails", "server_fails_reselect",
        }

    def test_stall_vs_recovery(self):
        res = fault_tolerance.run(num_workers=6, rounds=12, fail_at=3)
        s = res["scenarios"]
        assert s["server_fails"]["final_acc"] == pytest.approx(
            s["server_fails"]["acc_at_failure"], abs=0.02
        )
        assert s["server_fails_reselect"]["final_acc"] > s["server_fails"]["final_acc"]

    def test_dead_server_not_reselected(self):
        res = fault_tolerance.run(num_workers=6, rounds=10, fail_at=3)
        assert 1 not in res["scenarios"]["server_fails_reselect"]["final_servers"]

    def test_validation(self):
        with pytest.raises(ValueError):
            fault_tolerance.run(rounds=5, fail_at=5)
