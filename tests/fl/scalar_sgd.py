"""The per-worker local-SGD loop, kept as a test oracle.

Each worker once trained alone on a private model replica: set the
global parameters, run ``local_iters`` plain minibatch SGD steps with
minibatch rows drawn by ``worker.rng.integers``, and upload
``(theta - theta_K) / lr`` through its ``finalize_update``.
:class:`repro.fl.FleetLocalEngine` runs the same steps for many workers
as one stacked model; these are the loops it replaced, which it must
match to 1e-8 and draw for draw.
"""

from repro.nn import SoftmaxCrossEntropy

from tests.helpers import stack_updates


def local_gradient(worker, theta, global_buffers=None):
    """``(gradient, buffers)`` after the worker's local SGD steps from theta.

    ``buffers`` is the replica's non-trainable state (BatchNorm running
    statistics), or None for a buffer-free model.
    """
    model = worker.model_fn()
    model.set_flat_params(theta)
    if global_buffers is not None and global_buffers.size:
        model.set_flat_buffers(global_buffers)
    loss_fn = SoftmaxCrossEntropy()
    x, y = worker.dataset.x, worker.dataset.y
    for _ in range(worker.local_iters):
        idx = worker.rng.integers(0, len(x), size=min(worker.batch_size, len(x)))
        loss_fn(model.forward(x[idx], training=True), y[idx])
        model.backward(loss_fn.backward())
        model.apply_flat_grads(model.get_flat_grads(), lr=worker.lr)
    buffers = model.get_flat_buffers()
    grad = (theta - model.get_flat_params()) / worker.lr
    return grad, buffers if buffers.size else None


def scalar_update(worker, theta, global_buffers=None):
    """One worker's upload, computed by the worker alone."""
    if not worker.trains_locally:
        return worker.compute_update(theta, global_buffers)
    return worker.finalize_update(*local_gradient(worker, theta, global_buffers))


class PerWorkerLocal:
    """Local-compute oracle: every live worker's :func:`scalar_update`,
    one after another in worker order, in place of the fleet engine.

    Installed through the trainer's ``_fleet_for`` hook.
    """

    def __init__(self, workers):
        self.workers = workers

    def compute_updates(self, theta, global_buffers=None, exclude=None):
        exclude = exclude or ()
        return stack_updates({
            w.worker_id: scalar_update(w, theta, global_buffers)
            for w in self.workers
            if w.worker_id not in exclude
        }, theta.size)


def scalar_updates(workers, theta, global_buffers=None):
    """``{worker_id: update}`` of :func:`scalar_update` for each worker."""
    return {w.worker_id: scalar_update(w, theta, global_buffers) for w in workers}

