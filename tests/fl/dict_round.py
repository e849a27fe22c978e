"""The dict-of-dicts upload and aggregation path, kept as a test oracle.

The trainer once stacked every delivered gradient into a fresh matrix,
handed out ``worker -> {server: slice}`` views of it, and had each
server FedAvg a stacked list of its per-worker slices. The round now
carries the fleet's upload matrix and aggregates column blocks of the
kept rows (:func:`repro.fl.trainer.server_aggregates`); these are the
loops it replaced, which it must reproduce bit for bit.
"""

import numpy as np

from repro.fl.gradients import fedavg, slice_bounds


def stack_gradients(grads, dim):
    """Flat gradients stacked row-wise into one read-only ``(N, dim)`` matrix."""
    matrix = np.empty((len(grads), dim))
    for row, grad in zip(matrix, grads):
        row[:] = grad
    matrix.flags.writeable = False
    return matrix


def delivered_slices(updates, delivered, server_ranks, dim):
    """The delivered gradients as one matrix, and per-server views of it.

    Row ``i`` is worker ``delivered[i]``'s gradient; its slice for each
    server is a column-block view.
    """
    uploads = stack_gradients([updates[wid].gradient for wid in delivered], dim)
    bounds = slice_bounds(uploads.shape[1], len(server_ranks))
    blocks = [uploads[:, lo:hi] for lo, hi in bounds]
    slices = {
        wid: dict(zip(server_ranks, parts))
        for wid, parts in zip(delivered, zip(*blocks))
    }
    return uploads, slices


def aggregate_slices(slices, accepted_ids, sample_counts, server_ranks):
    """Each server's ``fedavg`` over the list of accepted workers' slices."""
    weights = [sample_counts[w] for w in accepted_ids]
    return [
        fedavg([slices[w][srv] for w in accepted_ids], weights)
        for srv in server_ranks
    ]
