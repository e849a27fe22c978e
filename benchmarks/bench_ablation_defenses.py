"""Ablation: FIFL detection vs Krum vs median filtering under attack.

The paper positions FIFL against Byzantine-tolerant aggregation (Krum,
median-style rules). This bench trains the same attacked federation under
each defence and reports final accuracy — all three should protect the
model (the baselines' gap to FIFL is that they produce *no per-worker
assessment*, so they cannot drive an incentive).
"""

import numpy as np

from repro.core import (
    DetectionConfig,
    FIFLConfig,
    FIFLMechanism,
    KrumMechanism,
    MedianMechanism,
)
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from conftest import emit, run_once

N_FEATURES, N_CLASSES, N_WORKERS = 8, 3, 8
ATTACKERS = (2, 5)


def _federation(seed=0):
    data = make_blobs(n_samples=800, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed)
    train, test = train_test_split(data, 0.25, seed=seed)
    shards = iid_partition(train, N_WORKERS, seed=seed)
    model_fn = lambda: build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    workers = []
    for i in range(N_WORKERS):
        if i in ATTACKERS:
            workers.append(
                SignFlippingWorker(i, shards[i], model_fn, lr=0.1, p_s=8.0,
                                   seed=seed + 100 + i)
            )
        else:
            workers.append(
                HonestWorker(i, shards[i], model_fn, lr=0.1, seed=seed + 100 + i)
            )
    return workers, test, model_fn


def _train(mechanism, seed=0):
    workers, test, model_fn = _federation(seed)
    trainer = FederatedTrainer(
        model_fn(), WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
        mechanism=mechanism, server_lr=0.1, seed=seed,
    )
    return trainer.run(30, eval_every=30).final_accuracy()


def bench_ablation_defenses(benchmark):
    def sweep():
        return {
            "undefended": _train(None),
            "fifl": _train(
                FIFLMechanism(FIFLConfig(detection=DetectionConfig(threshold=0.0)))
            ),
            "krum": _train(KrumMechanism(num_byzantine=2)),
            "median": _train(MedianMechanism(keep_fraction=0.5)),
        }

    result = run_once(benchmark, sweep)
    emit(
        "Ablation: defences under 2x sign-flip (p_s=8)",
        [f"{name:>12}  final_acc={acc:.3f}" for name, acc in result.items()],
    )
    # every defence beats no defence ...
    for name in ("fifl", "krum", "median"):
        assert result[name] > result["undefended"] + 0.1, name
    # ... and FIFL matches or exceeds the robust-aggregation rules (it
    # keeps sample-weighted averaging over ALL honest workers, while Krum
    # uses a single worker's gradient per round)
    assert result["fifl"] >= result["krum"] - 0.05
