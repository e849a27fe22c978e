"""Tests for the fault-tolerance experiment and trainer failure support."""

import numpy as np
import pytest

from repro.core import MECHANISM_NAMES, make_mechanism
from repro.experiments import fault_tolerance
from repro.nn import build_logreg
from repro.fl import FederatedTrainer
from repro.population import WorkerPopulation

from tests.helpers import (
    N_CLASSES, N_FEATURES, BlobDataFn, LogregFactory, make_federation,
)

#: the pinned roster and a full-size sampled cohort over the same workers
FEDERATIONS = {"pinned": {}, "sampled": {"cohort_size": 6, "sampler": "uniform"}}


def six_worker_trainer(mechanism=None, **kwargs):
    workers, _, test = make_federation(num_workers=6)
    return FederatedTrainer(
        build_logreg(N_FEATURES, N_CLASSES, seed=0),
        WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
        mechanism=mechanism, **kwargs,
    )


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

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_all_servers_failed_is_a_skipped_round(self, name):
        trainer = six_worker_trainer(make_mechanism(name))
        trainer.fail_node(0)
        trainer.fail_node(1)
        theta = trainer.model.get_flat_params().copy()
        history = trainer.run(2)
        for rec in history.rounds:
            assert rec.skipped
            assert rec.mechanism_records == {"skipped": "no live server"}
        assert np.array_equal(trainer.model.get_flat_params(), theta)

    @pytest.mark.parametrize("federation", sorted(FEDERATIONS))
    def test_dead_server_leaves_every_worker_uncertain(self, federation):
        trainer = six_worker_trainer(
            make_mechanism("fifl"), **FEDERATIONS[federation]
        )
        trainer.fail_node(1)
        theta = trainer.model.get_flat_params().copy()
        rec = trainer.run_round(0)
        assert not rec.skipped
        assert rec.uncertain == {0, 2, 3, 4, 5}
        assert rec.grad_norm == 0.0
        assert np.array_equal(trainer.model.get_flat_params(), theta)
        # every live worker's slice for the dead server was dropped
        assert trainer.network.drop_log.count(dst=1) == 5
        assert not trainer.network._link_drop

    def test_fail_node_keeps_no_per_link_state(self):
        population = WorkerPopulation(
            10**4, data_fn=BlobDataFn(), model_fn=LogregFactory(),
        )
        trainer = FederatedTrainer(LogregFactory()(), population, [0, 1])
        trainer.fail_node(1)
        trainer.fail_node(9_999)
        assert trainer.failed_nodes == {1, 9_999}
        assert not trainer.network._link_drop
        assert not trainer.network._blocked
        # the full-roster federation materializes nobody before a round
        assert population.cached_count == 0

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
