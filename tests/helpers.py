"""Shared test factories: tiny blob federations with logistic regression."""

import functools

import numpy as np

from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FleetLocalEngine, HonestWorker, LocalUpdates, RoundContext
from repro.nn import build_logreg

N_FEATURES = 8
N_CLASSES = 3


def model_fn(seed=0):
    """Factory-of-factories so every worker model starts identically."""
    return lambda: build_logreg(N_FEATURES, N_CLASSES, seed=seed)


class LogregFactory:
    """Picklable model factory (lambdas can't cross process boundaries).

    Use instead of :func:`model_fn` wherever a worker/population must
    survive ``pickle`` — snapshot round-trips, subprocess transfer.
    """

    def __init__(self, seed=0):
        self.seed = seed

    def __call__(self):
        return build_logreg(N_FEATURES, N_CLASSES, seed=self.seed)


class BlobDataFn:
    """Picklable per-worker dataset recipe for lazy populations."""

    def __init__(self, samples_per_worker=40, seed=0):
        self.samples_per_worker = samples_per_worker
        self.seed = seed

    def __call__(self, worker_id):
        return make_blobs(
            n_samples=self.samples_per_worker,
            n_features=N_FEATURES,
            num_classes=N_CLASSES,
            seed=(self.seed, 0xDA7A, worker_id),
        )


def make_federation(
    num_workers=4,
    n_samples=400,
    worker_cls=HonestWorker,
    worker_kwargs=None,
    seed=0,
    local_iters=1,
    lr=0.1,
):
    """Build (workers, train shards, test set) over blob data."""
    data = make_blobs(
        n_samples=n_samples, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )
    train, test = train_test_split(data, 0.25, seed=seed)
    shards = iid_partition(train, num_workers, seed=seed)
    mf = model_fn(seed)
    workers = [
        worker_cls(
            i,
            shards[i],
            mf,
            lr=lr,
            batch_size=32,
            local_iters=local_iters,
            seed=seed + 100 + i,
            **(worker_kwargs or {}),
        )
        for i in range(num_workers)
    ]
    return workers, shards, test


def local_update(worker, theta, global_buffers=None):
    """One worker's round upload, trained by the fleet engine."""
    engine = FleetLocalEngine([worker])
    return engine.compute_updates(theta, global_buffers)[worker.worker_id]


def stack_updates(updates, dim=None):
    """Per-worker ``WorkerUpdate`` objects in the fleet's row layout.

    ``updates`` maps worker id to update; rows come out in ascending id
    order. ``dim`` sizes the matrix when there are no updates.
    """
    ids = sorted(updates)
    ups = [updates[w] for w in ids]
    gradients = (
        np.stack([np.asarray(u.gradient, dtype=np.float64) for u in ups])
        if ups else np.empty((0, dim or 0))
    )
    gradients.flags.writeable = False
    with_buffers = [u.buffers is not None for u in ups]
    buffers = has_buffers = None
    if any(with_buffers):
        width = next(u.buffers.size for u in ups if u.buffers is not None)
        buffers = np.zeros((len(ups), width))
        for row, u in zip(buffers, ups):
            if u.buffers is not None:
                row[:] = u.buffers
        has_buffers = np.asarray(with_buffers, dtype=bool)
    return LocalUpdates(
        worker_ids=np.asarray(ids, dtype=np.int64),
        gradients=gradients,
        sample_counts=np.asarray([u.num_samples for u in ups], dtype=np.int64),
        attacked=np.asarray([u.attacked for u in ups], dtype=bool),
        buffers=buffers,
        has_buffers=has_buffers,
    )


def round_context(round_idx, global_params, server_ranks, updates, uncertain=()):
    """A hand-built :class:`RoundContext`, admitted as the trainer admits.

    ``updates`` is the round's ``LocalUpdates`` (see :func:`stack_updates`)
    and the workers in ``uncertain`` lost a slice. The rest go through
    :meth:`RoundContext.admit`, the trainer's own screen: a non-finite
    row lands in ``rejected``, every other row becomes an upload.
    """
    complete = ~np.isin(updates.worker_ids, list(uncertain))
    return RoundContext.admit(
        round_idx, global_params, server_ranks, updates, complete
    )


# -- one seeded, traced attacker federation ---------------------------------

ROUNDS = 6
GAMMA = 0.3
THRESHOLD = 0.0
ATTACKER = 3


def reputation_round(rep, outcomes: dict) -> dict:
    """One round of ``{worker: outcome}`` through a reputation table, as
    the ``{worker: reputation}`` map a FIFL ledger record carries."""
    values = rep.update_all(list(outcomes), list(outcomes.values()))
    return dict(zip(outcomes, values.tolist()))


def run_traced(rounds=ROUNDS, *, with_ledger=True, audit=True, seed=0):
    """One seeded attacker federation under a fresh deterministic hub.

    A 5-worker blob federation with one sign-flipping attacker
    (``ATTACKER``) and a full ledger. Returns ``(mechanism, chain,
    events)``: the live mechanism (round records + reputation store),
    the ledger, and the materialized telemetry events the run emitted.
    """
    from repro.core import make_mechanism
    from repro.fl import FederatedTrainer, SignFlippingWorker
    from repro.ledger import Blockchain
    from repro.population import WorkerPopulation
    from repro.telemetry import MemorySink, Telemetry, TickClock, set_telemetry

    sink = MemorySink(maxlen=None)
    hub = Telemetry(sinks=[sink], clock=TickClock())
    previous = set_telemetry(hub)
    try:
        workers, shards, test = make_federation(num_workers=5, seed=seed)
        workers[ATTACKER] = SignFlippingWorker(
            ATTACKER, shards[ATTACKER], model_fn(seed), p_s=4.0,
            lr=0.1, batch_size=32, local_iters=1, seed=seed + 100 + ATTACKER,
        )
        chain = Blockchain() if with_ledger else None
        mech = make_mechanism(
            "fifl", threshold=THRESHOLD, gamma=GAMMA, audit=audit,
            ledger=chain,
        )
        model = build_logreg(N_FEATURES, N_CLASSES, seed=seed)
        trainer = FederatedTrainer(
            model, population=WorkerPopulation.from_workers(workers),
            server_ranks=[0], test_data=test, mechanism=mech,
            server_lr=0.1,
        )
        trainer.run(rounds, eval_every=rounds)
        hub.flush()
    finally:
        set_telemetry(previous)
    return mech, chain, list(sink.events)


@functools.lru_cache(maxsize=None)
def seeded_trace(rounds=3) -> bytes:
    """JSONL bytes of :func:`run_traced`: spans, gauges, rounds, commits."""
    from repro.telemetry import encode_event

    _, _, events = run_traced(rounds)
    return b"".join(encode_event(ev).encode() + b"\n" for ev in events)
