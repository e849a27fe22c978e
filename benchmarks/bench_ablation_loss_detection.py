"""Ablation: FIFL's first-order detection vs exact loss-based (Zeno-style).

The paper's S4.1 argument: the exact score L(θ) − L(θ − G_i) needs one
validation inference per worker per round, while the Taylor-approximated
inner product needs none — and the approximation does not lose detection
quality on the attacks studied. This bench measures both claims: decision
agreement between the two scores, and their relative wall-clock cost.
"""

import time

import numpy as np

from repro.core import LossBasedDetector, detection_scores_matrix
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FleetLocalEngine, HonestWorker, SignFlippingWorker
from repro.fl.gradients import slice_offsets
from repro.nn import build_logreg

from conftest import emit, run_once

N_FEATURES, N_CLASSES, N_WORKERS = 16, 4, 10
ATTACKERS = (3, 7)


def _gradients(seed=0):
    data = make_blobs(n_samples=2200, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed)
    train, test = train_test_split(data, 0.2, seed=seed)
    shards = iid_partition(train, N_WORKERS, seed=seed)
    model_fn = lambda: build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    theta = model_fn().get_flat_params()
    workers = []
    for i in range(N_WORKERS):
        cls = SignFlippingWorker if i in ATTACKERS else HonestWorker
        kwargs = {"p_s": 4.0} if i in ATTACKERS else {}
        workers.append(cls(i, shards[i], model_fn, lr=0.1, local_iters=4,
                           seed=seed + 100 + i, **kwargs))
    updates = FleetLocalEngine(workers).compute_updates(theta)
    grads = {i: updates[i].gradient for i in range(N_WORKERS)}
    return theta, grads, test, model_fn


def _sweep():
    theta, grads, test, model_fn = _gradients()

    # exact loss-based detection (N+1 validation inferences)
    exact = LossBasedDetector(model_fn, test, step=0.1, threshold=0.0)
    t0 = time.perf_counter()
    for _ in range(5):
        exact_scores, exact_accept = exact.detect(theta, grads)
    exact_time = (time.perf_counter() - t0) / 5

    # FIFL first-order detection over the polycentric protocol (servers
    # 0 and 1 score slices against their own slices; no inference at all)
    ids = np.array(sorted(grads))
    matrix = np.stack([grads[w] for w in ids])
    offsets = slice_offsets(matrix.shape[1], 2)
    servers = np.array([0, 1])
    bench = [
        grads[srv][offsets[j] : offsets[j + 1]] for j, srv in enumerate(servers)
    ]
    t0 = time.perf_counter()
    for _ in range(5):
        fifl_scores = detection_scores_matrix(
            ids, matrix, offsets, servers, servers, bench, "cosine"
        )
    fifl_time = (time.perf_counter() - t0) / 5
    fifl_accept = dict(zip(ids.tolist(), (fifl_scores >= 0.0).tolist()))

    agreement = np.mean(
        [exact_accept[w] == fifl_accept[w] for w in grads]
    )
    return {
        "agreement": float(agreement),
        "exact_ms": exact_time * 1e3,
        "fifl_ms": fifl_time * 1e3,
        "speedup": exact_time / fifl_time,
        "exact_accept": exact_accept,
        "fifl_accept": fifl_accept,
    }


def bench_ablation_loss_vs_first_order(benchmark):
    result = run_once(benchmark, _sweep)
    emit(
        "Ablation: exact loss detection vs FIFL first-order",
        [
            f"decision agreement: {result['agreement']:.2f}",
            f"exact (Zeno-style): {result['exact_ms']:.2f} ms/round",
            f"FIFL first-order:   {result['fifl_ms']:.2f} ms/round",
            f"speedup:            {result['speedup']:.0f}x",
        ],
    )
    # identical decisions on this attack mix, at a fraction of the cost
    assert result["agreement"] == 1.0
    for a in ATTACKERS:
        assert result["exact_accept"][a] is False
        assert result["fifl_accept"][a] is False
    assert result["speedup"] > 5.0
