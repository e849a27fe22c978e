"""Integration tests: FIFLMechanism inside the federated trainer."""

import numpy as np
import pytest

from repro.core import DetectionConfig, FIFLConfig, FIFLMechanism, make_mechanism
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation, model_fn


def mixed_federation(num_workers=6, attacker_ids=(0,), p_s=4.0, seed=0):
    workers, _, test = make_federation(num_workers=num_workers, seed=seed)
    for aid in attacker_ids:
        workers[aid] = make_federation(
            num_workers=num_workers, seed=seed,
            worker_cls=SignFlippingWorker, worker_kwargs={"p_s": p_s},
        )[0][aid]
    return workers, test


def fifl_trainer(workers, test, server_ranks, config=None, drop_prob=0.0, seed=0):
    mech = FIFLMechanism(config or FIFLConfig(
        detection=DetectionConfig(threshold=0.0, mode="cosine"), gamma=0.2
    ))
    model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
    trainer = FederatedTrainer(
        model, WorkerPopulation.from_workers(workers), server_ranks, test_data=test,
        mechanism=mech, server_lr=0.1, drop_prob=drop_prob, seed=seed,
    )
    return trainer, mech


class NaNWorker(HonestWorker):
    """Blown-up local training: every upload is NaN."""

    def finalize_update(self, grad, buffers=None):
        return super().finalize_update(np.full_like(grad, np.nan), buffers)


class NaNInRoundOneWorker(HonestWorker):
    """Local training blows up in the second round only."""

    rounds_done = 0

    def finalize_update(self, grad, buffers=None):
        if self.rounds_done == 1:
            grad = np.full_like(grad, np.nan)
        self.rounds_done += 1
        return super().finalize_update(grad, buffers)


class TestNonFiniteUploadInTraining:
    def test_nan_worker_is_rejected_and_the_model_stays_finite(self):
        workers, shards, test = make_federation(num_workers=6)
        workers[4] = NaNWorker(
            4, shards[4], model_fn(0), lr=0.1, batch_size=32, seed=104
        )
        mech = make_mechanism("fifl")
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=mech, server_lr=0.1,
        )
        with np.errstate(invalid="ignore"):
            history = trainer.run(5, eval_every=1)
        for rec in history.rounds:
            assert rec.accepted[4] is False
            assert np.isfinite(rec.grad_norm) and rec.grad_norm > 0.0
        assert np.isfinite(trainer.model.get_flat_params()).all()
        assert history.final_accuracy() > 0.8
        rewards = mech.cumulative_rewards()
        assert 4 not in rewards
        assert np.isfinite(list(rewards.values())).all()

    @staticmethod
    def _nan_server_trainer(server_ranks):
        workers, shards, test = make_federation(num_workers=6)
        workers[0] = NaNWorker(
            0, shards[0], model_fn(0), lr=0.1, batch_size=32, seed=100
        )
        mech = make_mechanism("fifl")
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), server_ranks,
            test_data=test, mechanism=mech, server_lr=0.1,
        )
        return trainer, mech

    def test_round_with_no_finite_server_is_skipped(self):
        trainer, mech = self._nan_server_trainer([0])
        theta = trainer.model.get_flat_params().copy()
        with np.errstate(invalid="ignore"):
            history = trainer.run(3, eval_every=1)
        for rec in history.rounds:
            assert rec.skipped
            assert rec.mechanism_records["skipped"] == "no finite server update"
            assert rec.accepted == {} and rec.grad_norm == 0.0
        assert np.array_equal(trainer.model.get_flat_params(), theta)
        assert mech.records == []

    def test_skipped_round_keeps_a_strict_audit_green(self, tmp_path):
        from repro.audit import verify_trace
        from repro.ledger import Blockchain
        from repro.telemetry import (
            JsonlSink, Telemetry, read_trace, set_telemetry,
        )

        workers, shards, test = make_federation(num_workers=6)
        workers[0] = NaNInRoundOneWorker(
            0, shards[0], model_fn(0), lr=0.1, batch_size=32, seed=100
        )
        path = tmp_path / "trace.jsonl"
        hub = Telemetry(sinks=[JsonlSink(path)])
        previous = set_telemetry(hub)  # the ledger commits to the global hub
        try:
            mech = FIFLMechanism(ledger=Blockchain())
            trainer = FederatedTrainer(
                build_logreg(N_FEATURES, N_CLASSES, seed=0),
                WorkerPopulation.from_workers(workers), [0], test_data=test,
                mechanism=mech, server_lr=0.1,
            )
            with np.errstate(invalid="ignore"):
                history = trainer.run(3, eval_every=1)
        finally:
            set_telemetry(previous)
            hub.close()
        assert [r.skipped for r in history.rounds] == [False, True, False]
        assert [r.round_idx for r in mech.records] == [0, 2]
        report = verify_trace(read_trace(path))
        assert report.ok_strict(), report.to_dict()
        coverage = {c.name: c.detail for c in report.checks}["round-coverage"]
        assert "1 trainer-skipped" in coverage

    def test_one_finite_server_keeps_the_round(self):
        trainer, mech = self._nan_server_trainer([0, 1])
        with np.errstate(invalid="ignore"):
            history = trainer.run(3, eval_every=1)
        for rec in history.rounds:
            assert not rec.skipped
            assert rec.accepted[0] is False
            assert np.isfinite(rec.grad_norm) and rec.grad_norm > 0.0
        assert len(mech.records) == 3


class TestDetectionInTraining:
    def test_sign_flippers_rejected(self):
        workers, test = mixed_federation(attacker_ids=(0, 3))
        trainer, mech = fifl_trainer(workers, test, server_ranks=[1, 2])
        trainer.run(5, eval_every=5)
        for rec in mech.records:
            assert rec.accepted[0] is False
            assert rec.accepted[3] is False
            # honest non-server workers scored by both servers: stable
            assert rec.accepted[4] is True
            assert rec.accepted[5] is True

    def test_detection_preserves_accuracy_under_attack(self):
        workers, test = mixed_federation(num_workers=6, attacker_ids=(0, 1), p_s=8.0)
        defended, _ = fifl_trainer(workers, test, server_ranks=[2, 3])
        acc_defended = defended.run(30, eval_every=30).final_accuracy()

        workers2, test2 = mixed_federation(num_workers=6, attacker_ids=(0, 1), p_s=8.0)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        undefended = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers2), [2, 3], test_data=test2,
            server_lr=0.1,
        )
        acc_undefended = undefended.run(30, eval_every=30).final_accuracy()
        assert acc_defended > acc_undefended


class TestReputationInTraining:
    def test_attacker_reputation_low_honest_high(self):
        workers, test = mixed_federation(attacker_ids=(0,))
        trainer, mech = fifl_trainer(workers, test, server_ranks=[1])
        trainer.run(30, eval_every=30)
        reps = mech.reputation.reputations()
        assert reps[0] < 0.2
        assert all(reps[w] > 0.8 for w in range(1, 6))

    def test_uncertain_events_on_lossy_network(self):
        workers, test = mixed_federation(attacker_ids=())
        trainer, mech = fifl_trainer(workers, test, [1], drop_prob=0.3, seed=5)
        history = trainer.run(10, eval_every=10)
        assert any(r.uncertain for r in history.rounds)


class TestIncentivesInTraining:
    def test_attackers_punished_honest_rewarded(self):
        workers, test = mixed_federation(attacker_ids=(0,), p_s=6.0)
        trainer, mech = fifl_trainer(workers, test, server_ranks=[1, 2])
        trainer.run(20, eval_every=20)
        rewards = mech.cumulative_rewards()
        assert rewards[0] < 0
        # every honest worker ends far ahead of the attacker, and the
        # honest pool earns net-positive rewards
        assert all(rewards[w] > rewards[0] for w in range(1, 6))
        assert sum(rewards[w] for w in range(1, 6)) > 0

    def test_positive_shares_bounded_by_budget(self):
        workers, test = mixed_federation(attacker_ids=(0,))
        trainer, mech = fifl_trainer(workers, test, server_ranks=[1])
        trainer.run(10, eval_every=10)
        for rec in mech.records:
            paid = sum(v for v in rec.rewards.values() if v > 0)
            # positive share mass <= budget * max reputation <= budget
            assert paid <= mech.config.budget_per_round + 1e-9

    def test_round_records_complete(self):
        workers, test = mixed_federation(attacker_ids=(0,))
        trainer, mech = fifl_trainer(workers, test, server_ranks=[1])
        trainer.run(3, eval_every=3)
        assert len(mech.records) == 3
        rec = mech.records[-1]
        assert set(rec.scores) == set(range(6))
        assert rec.b_h is not None and rec.b_h > 0


class TestConfigValidation:
    def test_reference_baseline_needs_worker(self):
        with pytest.raises(ValueError):
            FIFLConfig(contribution_baseline="reference")

    def test_bad_baseline_name(self):
        with pytest.raises(ValueError):
            FIFLConfig(contribution_baseline="median")

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            FIFLConfig(budget_per_round=-1.0)

    def test_reference_baseline_runs(self):
        workers, test = mixed_federation(attacker_ids=())
        cfg = FIFLConfig(
            detection=DetectionConfig(threshold=0.0),
            contribution_baseline="reference",
            reference_worker=2,
        )
        trainer, mech = fifl_trainer(workers, test, [1], config=cfg)
        trainer.run(3, eval_every=3)
        rec = mech.records[-1]
        # the reference worker sits exactly on the baseline: C = 0
        assert rec.contribs[2] == pytest.approx(0.0, abs=1e-9)


class TestServerRecommendation:
    def test_recommends_high_reputation_workers(self):
        workers, test = mixed_federation(attacker_ids=(0,))
        trainer, mech = fifl_trainer(workers, test, server_ranks=[1])
        trainer.run(20, eval_every=20)
        recommended = mech.recommend_servers(3)
        assert 0 not in recommended
        assert len(recommended) == 3

    def test_errors(self):
        mech = FIFLMechanism()
        with pytest.raises(ValueError):
            mech.recommend_servers(0)
        with pytest.raises(RuntimeError):
            mech.recommend_servers(2)

    @staticmethod
    def _with_reputations(monkeypatch, reps):
        mech = FIFLMechanism()
        ids = sorted(reps)
        table = (np.array(ids), np.array([reps[w] for w in ids]))
        monkeypatch.setattr(mech.reputation, "tracked", lambda: table)
        return mech

    def test_top_m_by_reputation(self, monkeypatch):
        mech = self._with_reputations(monkeypatch, {0: 0.9, 1: 0.1, 2: 0.8, 3: 0.5})
        assert mech.recommend_servers(2) == [0, 2]

    def test_ties_broken_by_id(self, monkeypatch):
        mech = self._with_reputations(monkeypatch, {5: 0.5, 1: 0.5, 3: 0.5})
        assert mech.recommend_servers(2) == [1, 3]

    def test_returned_sorted(self, monkeypatch):
        mech = self._with_reputations(monkeypatch, {2: 0.9, 0: 0.95, 1: 0.1})
        assert mech.recommend_servers(2) == [0, 2]
