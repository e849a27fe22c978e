"""Tests for the federated trainer across all three architectures."""

import numpy as np
import pytest

from repro.fl import FederatedTrainer, RoundDecision, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation


def make_trainer(num_workers=4, server_ranks=(0,), mechanism=None, drop_prob=0.0,
                 worker_cls=None, worker_kwargs=None, seed=0):
    kwargs = {}
    if worker_cls is not None:
        kwargs["worker_cls"] = worker_cls
        kwargs["worker_kwargs"] = worker_kwargs
    workers, _, test = make_federation(num_workers=num_workers, seed=seed, **kwargs)
    model = build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    return FederatedTrainer(
        model, WorkerPopulation.from_workers(workers), list(server_ranks),
        test_data=test, mechanism=mechanism, server_lr=0.1, drop_prob=drop_prob,
        seed=seed,
    )


class TestConstruction:
    def test_rejects_bad_worker_ids(self):
        workers, _, test = make_federation(num_workers=3)
        workers[0].worker_id = 7
        model = build_logreg(N_FEATURES, N_CLASSES)
        with pytest.raises(ValueError):
            FederatedTrainer(
                model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            )

    def test_rejects_invalid_server_rank(self):
        workers, _, test = make_federation(num_workers=3)
        model = build_logreg(N_FEATURES, N_CLASSES)
        with pytest.raises(ValueError):
            FederatedTrainer(
                model, WorkerPopulation.from_workers(workers), [9], test_data=test,
            )

    def test_rejects_no_workers(self):
        model = build_logreg(N_FEATURES, N_CLASSES)
        with pytest.raises(ValueError):
            FederatedTrainer(model, WorkerPopulation.from_workers([]), [0])

    def test_architecture_extremes(self):
        assert make_trainer(server_ranks=[0]).num_servers == 1
        assert make_trainer(server_ranks=[0, 1, 2, 3]).num_servers == 4


class TestTraining:
    def test_learns_blobs(self):
        trainer = make_trainer(num_workers=4)
        history = trainer.run(num_rounds=40, eval_every=40)
        assert history.final_accuracy() > 0.7

    def test_history_length_and_eval_schedule(self):
        trainer = make_trainer()
        history = trainer.run(num_rounds=6, eval_every=3)
        assert len(history.rounds) == 6
        evals = [r.test_acc is not None for r in history.rounds]
        assert evals == [True, False, False, True, False, True]

    def test_accept_all_by_default(self):
        trainer = make_trainer()
        rec = trainer.run_round(0)
        assert all(rec.accepted.values())
        assert rec.uncertain == set()

    def test_run_validation(self):
        trainer = make_trainer()
        with pytest.raises(ValueError):
            trainer.run(0)
        with pytest.raises(ValueError):
            trainer.run(2, eval_every=0)


class TestArchitectureEquivalence:
    """Aggregating via 1, 2, or N servers must give identical models (abl-arch)."""

    @pytest.mark.parametrize("ranks", [[0], [0, 2], [0, 1, 2, 3]])
    def test_identical_global_model(self, ranks):
        trainer = make_trainer(server_ranks=ranks, seed=7)
        trainer.run(num_rounds=5, eval_every=5)
        theta = trainer.model.get_flat_params()
        ref = make_trainer(server_ranks=[0], seed=7)
        ref.run(num_rounds=5, eval_every=5)
        np.testing.assert_allclose(theta, ref.model.get_flat_params(), atol=1e-12)


class TestFailureInjection:
    def test_lossy_uplink_creates_uncertain_events(self):
        trainer = make_trainer(drop_prob=0.4, seed=1)
        total_uncertain = 0
        for t in range(10):
            rec = trainer.run_round(t)
            total_uncertain += len(rec.uncertain)
            for w in rec.uncertain:
                assert not rec.accepted[w]
        assert total_uncertain > 0

    def test_fully_reliable_network_no_uncertainty(self):
        trainer = make_trainer(drop_prob=0.0)
        rec = trainer.run_round(0)
        assert rec.uncertain == set()

    def test_all_dropped_round_keeps_model(self):
        trainer = make_trainer()
        for src in range(4):
            for dst in range(4):
                trainer.network.set_link_drop_prob(src, dst, 1.0)
        theta_before = trainer.model.get_flat_params()
        rec = trainer.run_round(0)
        np.testing.assert_array_equal(trainer.model.get_flat_params(), theta_before)
        assert rec.grad_norm == 0.0


class TestMechanismHook:
    def test_rejecting_mechanism_blocks_update(self):
        class RejectAll:
            def process_round(self, ctx):
                return RoundDecision(accept={w: False for w in ctx.slices})

        trainer = make_trainer(mechanism=RejectAll())
        theta_before = trainer.model.get_flat_params()
        trainer.run_round(0)
        np.testing.assert_array_equal(trainer.model.get_flat_params(), theta_before)

    def test_mechanism_records_propagate(self):
        class Recorder:
            def process_round(self, ctx):
                return RoundDecision(
                    accept={w: True for w in ctx.slices},
                    records={"n_workers": len(ctx.slices)},
                )

        trainer = make_trainer(mechanism=Recorder())
        rec = trainer.run_round(0)
        assert rec.mechanism_records == {"n_workers": 4}

    def test_context_slices_recombine_to_full_gradient(self):
        seen = {}

        class Check:
            def process_round(self, ctx):
                for wid, parts in ctx.slices.items():
                    flat = np.concatenate([parts[s] for s in sorted(parts)])
                    seen[wid] = np.allclose(flat, ctx.updates[wid].gradient)
                return RoundDecision(accept={w: True for w in ctx.slices})

        trainer = make_trainer(server_ranks=[0, 1, 3], mechanism=Check())
        trainer.run_round(0)
        assert seen and all(seen.values())


class TestAttackDamage:
    def test_sign_flipping_hurts_accuracy(self):
        clean = make_trainer(num_workers=4, seed=2)
        acc_clean = clean.run(30, eval_every=30).final_accuracy()

        workers, _, test = make_federation(num_workers=4, seed=2)
        attacker = make_federation(
            num_workers=4, seed=2, worker_cls=SignFlippingWorker,
            worker_kwargs={"p_s": 6.0},
        )[0][0]
        workers[0] = attacker
        model = build_logreg(N_FEATURES, N_CLASSES, seed=2)
        dirty = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [1], test_data=test,
            server_lr=0.1,
        )
        acc_dirty = dirty.run(30, eval_every=30).final_accuracy()
        assert acc_dirty < acc_clean
