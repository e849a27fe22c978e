"""Limitation study: colluding small-perturbation attackers evade FIFL.

S4.1 scopes FIFL to disorganized attackers and acknowledges (citing
Baruch et al.'s "A Little Is Enough") that colluders hiding in small
gradient changes are out of scope. This bench measures that boundary:
three colluders planting the same ε-scaled direction pass detection
almost every round, while the planted bias accumulates in the global
model — visible as parameter drift along the planted direction far above
the clean run's.
"""

import numpy as np

from repro.core import DetectionConfig, FIFLConfig, FIFLMechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import ColludingAttacker, FederatedTrainer, HonestWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from conftest import emit, run_once

N_FEATURES, N_CLASSES, N_WORKERS = 8, 3, 8
COLLUDERS = (5, 6, 7)
EPSILON = 0.3
DIRECTION_SEED = 42


def _run(with_colluders: bool, seed=0, rounds=25):
    data = make_blobs(n_samples=900, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed)
    train, test = train_test_split(data, 0.25, seed=seed)
    shards = iid_partition(train, N_WORKERS, seed=seed)
    model_fn = lambda: build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    workers = []
    for i in range(N_WORKERS):
        if with_colluders and i in COLLUDERS:
            workers.append(
                ColludingAttacker(i, shards[i], model_fn, lr=0.1,
                                  epsilon=EPSILON, direction_seed=DIRECTION_SEED,
                                  seed=seed + 100 + i)
            )
        else:
            workers.append(
                HonestWorker(i, shards[i], model_fn, lr=0.1, seed=seed + 100 + i)
            )
    mech = FIFLMechanism(
        FIFLConfig(detection=DetectionConfig(threshold=0.0), gamma=0.3)
    )
    trainer = FederatedTrainer(
        model_fn(), WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
        mechanism=mech, server_lr=0.1, seed=seed,
    )
    history = trainer.run(rounds, eval_every=rounds)
    theta = trainer.model.get_flat_params()
    direction = np.random.default_rng(DIRECTION_SEED).normal(size=theta.size)
    direction /= np.linalg.norm(direction)
    reject_rate = float(np.mean([
        not rec.accepted[c] for rec in mech.records for c in COLLUDERS
    ]))
    return {
        "final_acc": history.final_accuracy(),
        "drift": float(theta @ direction),
        "reject_rate": reject_rate,
    }


def bench_limitation_collusion(benchmark):
    def sweep():
        return {"clean": _run(False), "colluded": _run(True)}

    result = run_once(benchmark, sweep)
    clean, dirty = result["clean"], result["colluded"]
    emit(
        "Limitation: colluding epsilon-perturbation attackers",
        [
            f"{'clean':>9}  acc={clean['final_acc']:.3f}  "
            f"drift={clean['drift']:+.3f}",
            f"{'colluded':>9}  acc={dirty['final_acc']:.3f}  "
            f"drift={dirty['drift']:+.3f}  "
            f"colluder-reject-rate={dirty['reject_rate']:.2f}",
        ],
    )
    # the colluders sail through detection ...
    assert dirty["reject_rate"] < 0.2
    # ... while steering the model along the planted direction
    assert abs(dirty["drift"]) > 3 * abs(clean["drift"])
