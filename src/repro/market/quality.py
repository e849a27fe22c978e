"""FIFL market weights measured from real gradient geometry.

The market experiments (S5.2) need each mechanism's reward weights for a
population of workers who differ only in how much data they own. The four
baselines map claimed sample counts straight to weights (Eq. 19-22). FIFL
has no such closed form — its weight is the gradient-distance contribution
— so we *measure* it: spin up a one-shot federation on synthetic blob data
where worker ``i`` owns ``n_i`` samples, have every worker compute one
full-batch local gradient at a common parameter point, and run the actual
contribution pipeline (Eq. 13-14) on those gradients.

This captures the property the paper argues for analytically: more data
means a lower-variance local gradient, hence a smaller distance to the
pooled global gradient and a larger contribution — and very small workers
fall below the baseline ``b_h`` and earn nothing (the free-rider guard).
"""

from __future__ import annotations

import numpy as np

from ..core.contribution import contributions_array, gradient_distance
from ..datasets import make_blobs, sized_partition
from ..fl.gradients import fedavg
from ..nn import SoftmaxCrossEntropy, build_logreg

__all__ = ["measure_fifl_weights"]

_N_FEATURES = 16
_N_CLASSES = 4


def _full_batch_gradient(model, x, y, loss_fn) -> np.ndarray:
    loss_fn(model.forward(x, training=True), y)
    model.backward(loss_fn.backward())
    return model.get_flat_grads()


def measure_fifl_weights(
    samples: np.ndarray,
    reference_quantile: float = 0.3,
    seed: int = 0,
    n_probe_rounds: int = 5,
) -> np.ndarray:
    """FIFL reward weights for workers owning ``samples[i]`` data points.

    Runs ``n_probe_rounds`` one-shot gradient measurements (different
    random draws of each worker's dataset) and averages the contribution
    of each worker; negative contributions are clipped to zero (punished
    workers receive no reward in the market, they pay).

    ``reference_quantile`` sets the free-rider guard: the baseline ``b_h``
    is the gradient distance of a probe worker owning the population's
    q-th quantile of data, so workers below roughly that quality earn
    nothing (S4.3's "prevent free-riders ... from joining").
    """
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two workers")
    if (samples <= 0).any():
        raise ValueError("sample counts must be positive")
    if not 0.0 <= reference_quantile < 1.0:
        raise ValueError("reference_quantile must be in [0, 1)")
    if n_probe_rounds <= 0:
        raise ValueError("n_probe_rounds must be positive")

    n_ref = max(1, int(np.quantile(samples, reference_quantile)))
    n_workers = samples.size
    totals = np.zeros(n_workers)
    loss_fn = SoftmaxCrossEntropy()

    for probe in range(n_probe_rounds):
        # A moderately hard probe task (low signal-to-noise) spreads the
        # contribution profile across the quality range; with an easy task
        # every worker's gradient is near-perfect and FIFL cannot
        # discriminate (calibrated in EXPERIMENTS.md).
        data = make_blobs(
            n_samples=4096,
            n_features=_N_FEATURES,
            num_classes=_N_CLASSES,
            signal=1.0,
            noise=2.0,
            seed=seed * 1009 + probe,
        )
        # the reference worker is appended as an extra probe participant
        shards = sized_partition(
            data, np.append(samples, n_ref), seed=seed * 31 + probe, replace=True
        )
        model = build_logreg(_N_FEATURES, _N_CLASSES, seed=seed)
        theta = model.get_flat_params()
        grads = []
        for shard in shards:
            model.set_flat_params(theta)
            grads.append(
                _full_batch_gradient(model, shard.x, shard.y, loss_fn)
            )
        worker_grads = grads[:n_workers]
        ref_grad = grads[n_workers]
        global_grad = fedavg(worker_grads, samples.astype(float))
        distances = np.array(
            [gradient_distance(global_grad, g) for g in worker_grads]
        )
        b_h = gradient_distance(global_grad, ref_grad)
        if b_h <= 0.0:
            continue
        totals += contributions_array(distances, b_h)

    weights = np.maximum(totals / n_probe_rounds, 0.0)
    if weights.sum() == 0.0:
        # degenerate probe (all below the guard): fall back to uniform so
        # downstream normalization stays well-defined
        weights = np.full(n_workers, 1.0 / n_workers)
    return weights
