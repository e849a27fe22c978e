"""Property tests of system-level invariants over randomized federations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectionConfig, FIFLConfig, FIFLMechanism
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.ledger import Blockchain
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation


def random_federation(seed, num_workers, n_attackers, gamma, drop_prob):
    workers, _, test = make_federation(num_workers=num_workers, seed=seed)
    rng = np.random.default_rng(seed)
    attacker_ids = rng.choice(
        np.arange(2, num_workers), size=n_attackers, replace=False
    )
    for aid in attacker_ids:
        workers[aid] = make_federation(
            num_workers=num_workers, seed=seed,
            worker_cls=SignFlippingWorker,
            worker_kwargs={"p_s": float(rng.uniform(2, 8))},
        )[0][aid]
    chain = Blockchain()
    mech = FIFLMechanism(
        FIFLConfig(detection=DetectionConfig(threshold=0.0), gamma=gamma),
        ledger=chain,
    )
    model = build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    trainer = FederatedTrainer(
        model, WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
        mechanism=mech, server_lr=0.1, drop_prob=drop_prob, seed=seed,
    )
    return trainer, mech, chain, set(int(a) for a in attacker_ids)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_workers=st.integers(5, 9),
    n_attackers=st.integers(0, 2),
    gamma=st.floats(0.1, 0.5),
    drop_prob=st.floats(0.0, 0.25),
)
def test_system_invariants(seed, num_workers, n_attackers, gamma, drop_prob):
    """One randomized federation run upholds every cross-module invariant."""
    rounds = 8
    trainer, mech, chain, attackers = random_federation(
        seed, num_workers, n_attackers, gamma, drop_prob
    )
    history = trainer.run(rounds, eval_every=rounds)

    # 1. bookkeeping: one record + one ledger block per round, chain intact
    assert len(mech.records) == rounds
    assert len(chain) == rounds
    assert chain.is_intact()

    # 2. reputations always within [0, 1]
    for rec in mech.records:
        for rep in rec.reputations.values():
            assert 0.0 <= rep <= 1.0 + 1e-12

    # 3. per-round reward conservation: positive payouts never exceed the
    #    budget; punishments never exceed the budget either (bounded)
    for rec in mech.records:
        paid = sum(v for v in rec.rewards.values() if v > 0)
        assert paid <= mech.config.budget_per_round + 1e-9
        for v in rec.rewards.values():
            assert v >= -mech.config.budget_per_round - 1e-9

    # 4. detection coverage: every non-uncertain worker got a verdict
    for hist_rec, mech_rec in zip(history.rounds, mech.records):
        scored = set(mech_rec.scores)
        uncertain = hist_rec.uncertain
        assert scored.isdisjoint(uncertain)
        assert scored | uncertain == set(range(num_workers))

    # 5. rejected or uncertain workers never enter the aggregate
    for hist_rec in history.rounds:
        for w, ok in hist_rec.accepted.items():
            if w in hist_rec.uncertain:
                assert not ok

    # 6. cumulative rewards equal the sum of per-round rewards
    totals = {}
    for rec in mech.records:
        for w, v in rec.rewards.items():
            totals[w] = totals.get(w, 0.0) + v
    for w, v in mech.cumulative_rewards().items():
        assert v == pytest.approx(totals.get(w, 0.0))
