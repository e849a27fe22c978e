"""Scalar reference for the reputation-weighted cohort sampler.

:class:`~repro.population.ReputationWeightedSampler` streams
Efraimidis–Spirakis keys chunk by chunk and keeps a pruned running
top-k. This is the loop it must agree with: the identical per-chunk
uniform draws, every key computed with scalar Python arithmetic, and a
full sort of the key list — O(n) memory, kept only as a differential
oracle.
"""

import numpy as np

from repro.population.sampler import (
    _SALT_WEIGHTED,
    _required_array,
    _round_rng,
    _with_required,
)


def reputation_weighted_reference(
    seed: int,
    round_idx: int,
    population,
    cohort_size: int,
    required=(),
    floor: float = 0.05,
) -> np.ndarray:
    """Sorted cohort ids by (key desc, id asc), ``required`` included.

    Ill-defined when a reputation is NaN: the sort key then compares
    NaN, so tests pin that case by its specified outcome instead.
    """
    n = population.size
    req = _required_array(required, n)
    k = min(cohort_size, n) - req.size
    if k <= 0:
        return req
    req_set = set(int(r) for r in req)
    keyed: list[tuple[float, int]] = []
    for start, reps in population.reputation_store.iter_chunks():
        rng = _round_rng(_SALT_WEIGHTED, seed, round_idx, start)
        u = rng.random(len(reps))
        for i in range(len(reps)):
            wid = start + i
            if wid in req_set:
                continue
            w = floor + max(float(reps[i]), 0.0)
            keyed.append((float(u[i]) ** (1.0 / w), wid))
    keyed.sort(key=lambda kv: (-kv[0], kv[1]))
    extras = np.asarray([wid for _, wid in keyed[:k]], dtype=np.int64)
    return _with_required(req, extras)
