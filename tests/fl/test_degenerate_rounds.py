"""Degenerate federations get defined outcomes and a strict-clean audit.

Three rounds a long-running FIFL service can meet: a zero reward
budget, a cohort whose every non-server worker attacks, and more pinned
servers than the sampled cohort size. Each runs traced with a ledger;
the asserted outcome and ``verify_trace(...).ok_strict()`` pin it.
"""

import numpy as np

from repro.audit import verify_trace
from repro.core import make_mechanism
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.ledger import Blockchain
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.telemetry import MemorySink, Telemetry, TickClock, set_telemetry

from tests.helpers import N_CLASSES, N_FEATURES, make_federation, model_fn

ROUNDS = 4


def _run(workers, test, server_ranks, **kwargs):
    """``ROUNDS`` traced rounds; (history, mechanism, events)."""
    mech_kwargs = kwargs.pop("mechanism", {})
    hub = Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock())
    previous = set_telemetry(hub)  # the ledger commits to the global hub
    try:
        mech = make_mechanism(
            "fifl", threshold=0.0, ledger=Blockchain(), **mech_kwargs
        )
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), server_ranks,
            test_data=test, mechanism=mech, server_lr=0.1, **kwargs,
        )
        history = trainer.run(ROUNDS, eval_every=ROUNDS)
        hub.flush()
    finally:
        set_telemetry(previous)
    report = verify_trace(list(hub.events()))
    assert report.ok_strict(), report.to_dict()
    return history, mech


def test_zero_budget_pays_nobody():
    workers, _, test = make_federation(num_workers=6)
    history, mech = _run(workers, test, [0], mechanism={"budget_per_round": 0.0})
    assert not any(r.skipped for r in history.rounds)
    assert len(mech.records) == ROUNDS
    for rec in mech.records:
        assert rec.accepted == {w: True for w in range(6)}
        assert rec.rewards == {w: 0.0 for w in range(6)}


def test_every_non_server_attacker_is_flagged():
    workers, shards, test = make_federation(num_workers=6)
    for w in range(1, 6):
        workers[w] = SignFlippingWorker(
            w, shards[w], model_fn(0), p_s=4.0, lr=0.1, batch_size=32,
            seed=100 + w,
        )
    history, mech = _run(workers, test, [0])
    assert not any(r.skipped for r in history.rounds)
    for rec in mech.records:
        assert rec.accepted == {0: True, 1: False, 2: False, 3: False,
                                4: False, 5: False}
        assert rec.rewards[0] > 0.0
        assert all(rec.rewards[w] < 0.0 for w in range(1, 6))
    assert np.isfinite(history.rounds[-1].test_loss)


def test_more_pinned_servers_than_the_cohort():
    workers, _, test = make_federation(num_workers=8)
    servers = [0, 1, 2]
    history, mech = _run(
        workers, test, servers, cohort_size=2, sampler="uniform", seed=0
    )
    assert not any(r.skipped for r in history.rounds)
    assert len(mech.records) == ROUNDS
    for rec in mech.records:
        # the cohort is the pinned servers alone, and every one is scored
        assert sorted(rec.scores) == servers
        assert rec.accepted == {s: True for s in servers}
