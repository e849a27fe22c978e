"""References for the reputation-weighted cohort sampler.

:class:`~repro.population.ReputationWeightedSampler` streams
Efraimidis–Spirakis keys chunk by chunk, computes a key only for the
rows a threshold prefilter lets through, and keeps a pruned running
top-k. Two loops pin it:

* :func:`reputation_weighted_oracle` — the byte-identity oracle: the
  identical per-chunk draws, every key computed with the same numpy
  expression over the whole chunk, and the same pruned merge. Its
  output bytes must equal the sampler's.
* :func:`reputation_weighted_reference` — a cohort-level oracle: every
  key computed with scalar Python arithmetic and a full sort of the key
  list, O(n) memory. libm ``pow`` differs from numpy's vectorized
  ``pow`` by 1 ULP on a few percent of keys, so it checks the cohort,
  not the bytes of every key.

:func:`availability_aware_oracle` is the availability-aware sampler's
candidate loop with one ``default_rng`` check-in draw per candidate,
which :func:`check_in` spells out.
"""

import numpy as np

from repro.population.sampler import (
    _SALT_AVAILABLE,
    _SALT_WEIGHTED,
    _required_array,
    _with_required,
)


def _chunk_uniforms(seed: int, round_idx: int, start: int, size: int):
    """The chunk's draws, seeded from the plain int tuple."""
    rng = np.random.default_rng((_SALT_WEIGHTED, seed, round_idx, start))
    return rng.random(size)


def reputation_weighted_oracle(
    seed: int,
    round_idx: int,
    population,
    cohort_size: int,
    required=(),
    floor: float = 0.05,
) -> np.ndarray:
    """Sorted cohort ids from every worker's key, computed chunk by chunk.

    The sampler's loop before the threshold prefilter: all keys of a
    chunk in one vectorized expression, then the rows above the running
    k-th key merged by (key desc, id asc).
    """
    n = population.size
    req = _required_array(required, n)
    k = min(cohort_size, n) - req.size
    if k <= 0:
        return req
    best_ids = np.empty(0, dtype=np.int64)
    best_keys = np.empty(0)
    tau = None
    for start, reps in population.reputation_store.iter_chunks():
        u = _chunk_uniforms(seed, round_idx, start, reps.size)
        w = floor + np.maximum(np.asarray(reps, dtype=np.float64), 0.0)
        keys = u ** (1.0 / w)
        if tau is None:
            rows = np.arange(keys.size)
        else:
            rows = np.flatnonzero(keys > tau)
            if not rows.size:
                continue
        ids = rows + start
        lo, hi = np.searchsorted(req, (start, start + keys.size))
        if hi > lo:
            keep = ~np.isin(ids, req[lo:hi])
            ids, rows = ids[keep], rows[keep]
        all_ids = np.concatenate([best_ids, ids])
        all_keys = np.concatenate([best_keys, keys[rows]])
        order = np.lexsort((all_ids, -all_keys))[:k]
        best_ids, best_keys = all_ids[order], all_keys[order]
        if best_keys.size == k and not np.isnan(best_keys[-1]):
            tau = best_keys[-1]
    return _with_required(req, best_ids)


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
        u = _chunk_uniforms(seed, round_idx, start, len(reps))
        for i in range(len(reps)):
            wid = start + i
            if wid in req_set:
                continue
            w = floor + max(float(reps[i]), 0.0)
            keyed.append((float(u[i]) ** (1.0 / w), wid))
    keyed.sort(key=lambda kv: (-kv[0], kv[1]))
    extras = np.asarray([wid for _, wid in keyed[:k]], dtype=np.int64)
    return _with_required(req, extras)


def check_in(population, worker_id: int, round_idx: int) -> bool:
    """The per-(round, id) availability draw, one generator per id."""
    rng = np.random.default_rng((0xA1B2, population.seed, round_idx, worker_id))
    return bool(rng.random() < population.availability)


def availability_aware_oracle(
    seed: int,
    round_idx: int,
    population,
    cohort_size: int,
    required=(),
    max_attempt_factor: int = 64,
) -> np.ndarray:
    """Candidates in draw order, each kept if live and checked in, until
    ``k`` are kept or the attempt budget runs out."""
    n = population.size
    req = _required_array(required, n)
    k = min(cohort_size, n) - req.size
    if k <= 0:
        return req
    rng = np.random.default_rng((_SALT_AVAILABLE, seed, round_idx))
    seen = set(int(r) for r in req)
    chosen: list[int] = []
    budget = max_attempt_factor * k + 256
    while len(chosen) < k and budget > 0:
        draws = rng.integers(0, n, size=min(budget, 2 * (k - len(chosen)) + 8))
        budget -= draws.size
        for v in draws.tolist():
            if v in seen:
                continue
            seen.add(v)
            live = population.is_live(v)
            if live and (population.availability >= 1.0 or check_in(
                population, v, round_idx
            )):
                chosen.append(v)
                if len(chosen) == k:
                    break
    return _with_required(req, np.asarray(chosen, dtype=np.int64))
