"""End-to-end integration: nn -> fl -> core -> ledger in one pipeline."""

import numpy as np
import pytest

from repro.core import (
    DetectionConfig,
    FIFLConfig,
    FIFLMechanism,
    fairness_coefficient,
)
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.ledger import Blockchain, audit_reputation
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation

GAMMA = 0.3


def full_pipeline(num_workers=8, attacker_ids=(6, 7), rounds=20, seed=0,
                  drop_prob=0.0, reselect_every=0, reputation_mode="decay"):
    """The two lowest honest ids as servers, FIFL + ledger; return everything."""
    workers, _, test = make_federation(num_workers=num_workers, seed=seed)
    for aid in attacker_ids:
        workers[aid] = make_federation(
            num_workers=num_workers, seed=seed,
            worker_cls=SignFlippingWorker, worker_kwargs={"p_s": 6.0},
        )[0][aid]
    servers = [w for w in range(num_workers) if w not in attacker_ids][:2]
    chain = Blockchain()
    mech = FIFLMechanism(
        FIFLConfig(
            detection=DetectionConfig(threshold=0.0),
            gamma=GAMMA,
            reputation_mode=reputation_mode,
        ),
        ledger=chain,
    )
    model = build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    trainer = FederatedTrainer(
        model, WorkerPopulation.from_workers(workers), servers, test_data=test,
        mechanism=mech, server_lr=0.1, drop_prob=drop_prob, seed=seed,
        reselect_every=reselect_every,
    )
    history = trainer.run(rounds, eval_every=rounds)
    return history, mech, chain, trainer


class TestFullPipeline:
    def test_model_learns_despite_attack(self):
        history, _, _, _ = full_pipeline()
        assert history.final_accuracy() > 0.7

    def test_attackers_end_with_lowest_reputation(self):
        _, mech, _, _ = full_pipeline()
        reps = mech.reputation.reputations()
        worst_two = sorted(reps, key=reps.get)[:2]
        assert set(worst_two) == {6, 7}

    def test_rewards_track_honesty(self):
        _, mech, _, _ = full_pipeline()
        rewards = mech.cumulative_rewards()
        honest = [rewards[w] for w in range(6)]
        attackers = [rewards[6], rewards[7]]
        assert min(honest) > max(attackers)

    def test_every_worker_audits_clean(self):
        _, _, chain, _ = full_pipeline()
        assert chain.is_intact()
        for wid in range(8):
            report = audit_reputation(chain, wid, gamma=GAMMA)
            assert report.clean, f"worker {wid}: {report.findings}"

    def test_fairness_among_honest_workers(self):
        # Theorem 2 in vivo: among equally-reputable honest workers the
        # round rewards correlate strongly with round contributions
        _, mech, _, _ = full_pipeline(rounds=25)
        last = mech.records[-1]
        # Theorem 2's premise is equal reputations: restrict to honest
        # workers whose reputation has converged to ~1
        honest = [
            w for w in range(6)
            if last.contribs.get(w, 0) > 0 and last.reputations.get(w, 0) > 0.99
        ]
        if len(honest) >= 3:
            c = np.array([last.contribs[w] for w in honest])
            r = np.array([last.rewards[w] for w in honest])
            assert fairness_coefficient(c, r) > 0.99

    def test_lossy_network_still_converges_and_audits(self):
        history, mech, chain, _ = full_pipeline(drop_prob=0.15, rounds=25, seed=3)
        assert history.final_accuracy() > 0.6
        assert chain.is_intact()
        # uncertain events happened and were ledgered as None outcomes
        uncertain_rounds = [
            blk for blk in chain.blocks
            if any(v is None for v in blk.payload["accepted"].values())
        ]
        assert uncertain_rounds
        for wid in range(8):
            assert audit_reputation(chain, wid, gamma=GAMMA).clean

    def test_reselection_with_full_pipeline(self):
        # re-selection must keep attacker 0 out of the cluster
        history, mech, chain, trainer = full_pipeline(
            attacker_ids=(0, 7), reselect_every=4, rounds=16, seed=5
        )
        assert 0 not in trainer.server_ranks
        assert history.final_accuracy() > 0.6

    def test_slm_reputation_mode_pipeline(self):
        history, mech, chain, _ = full_pipeline(
            reputation_mode="slm", rounds=15, seed=2
        )
        assert history.final_accuracy() > 0.6
        # SLM-mode reputations live in [-a_n - a_u, a_t]
        for rec in mech.records:
            for rep in rec.reputations.values():
                assert -2.0 <= rep <= 1.0


class TestDeterminism:
    def test_pipeline_fully_reproducible(self):
        h1, m1, c1, _ = full_pipeline(seed=9, rounds=8)
        h2, m2, c2, _ = full_pipeline(seed=9, rounds=8)
        assert h1.final_accuracy() == h2.final_accuracy()
        assert m1.cumulative_rewards() == m2.cumulative_rewards()
        assert [b.hash for b in c1.blocks] == [b.hash for b in c2.blocks]

    def test_different_seeds_differ(self):
        h1, _, _, _ = full_pipeline(seed=9, rounds=5)
        h2, _, _, _ = full_pipeline(seed=10, rounds=5)
        assert h1.final_accuracy() != h2.final_accuracy()
