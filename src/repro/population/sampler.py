"""Seeded cohort samplers over a :class:`~repro.population.WorkerPopulation`.

Every sampler is *stateless between rounds*: each round's randomness is
derived from ``(salt, sampler_seed, round_idx)`` with
``np.random.default_rng``, so the cohort id sequence is identical across
process restarts — resuming a federation at round ``t`` re-draws exactly
the cohort a fresh process would (see
``TestRestartDeterminism`` in ``tests/population/test_sampler.py``,
which replays in a subprocess).

Memory contract: sampling ``k`` ids from a population of ``n`` costs
O(k) (uniform, availability-aware; rejection sampling with a dense
fallback when ``k`` approaches ``n``) or O(block + k)
(reputation-weighted; Efraimidis–Spirakis exponential keys streamed
block by block from the :class:`~repro.population.ReputationStore`
with a running top-k) — never O(n) for small cohorts.

Time cost: the reputation-weighted sampler draws one uniform ``u`` per
worker, O(n) per round, but computes the key ``u ** (1/w)`` only for
rows that can enter the running top-k. Once the top-k is full with
k-th key τ, a row of weight ``w`` has a key above τ only if
``u > τ**w >= τ**w_max``, where ``w_max = floor + max(max(reps), 0)``
bounds the block's weights. The prefilter keeps the rows with
``u >= τ**w_max * (1 - 2**-20 * (1 + s))``, ``s = w_max * (1 + |ln τ|)``,
computes the unchanged key expression for them alone, and applies the
unchanged ``> τ`` test, so a cohort is byte-identical to one built from
every key. The margin covers three roundings, each translated to a
relative shift of the bound on ``u``: ``e = fl(1/w)`` is off by at most
2**-53 relative, which the key's sensitivity to ``e`` near τ scales by
``w * |ln τ|``; numpy's ``pow`` is within a few ULP of ``u**e``, which
the ``1/e`` power scales by ``w``; and ``τ**w_max`` is rounded once.
With ``pow`` at 4 ULP the three stay below ``2**-48 * (1 + s)``, so the
margin is over 2**28 times what it has to cover. ``pow`` acts per
element, so on the gathered rows it gives the bits it gives on the
whole block. Three fallbacks compute every key of a block: a NaN
maximum reputation (NaN keys never pass ``> τ`` anyway), ``s >= 2**18``
(the margin would cut the threshold by a quarter, and ``1/w`` loses
precision once ``w`` nears the overflow range), and τ not a positive
normal float (τ = 0 when the top keys underflow; ``pow``'s error on
subnormal results is not relative).

Each chunk still reads its own stream, the one
``default_rng((salt, seed, round, chunk_start))`` starts, but nothing
builds those generators: :func:`~repro.fl.streams.seed_streams` derives
every chunk's PCG64 state in one vectorized pass, and one ``Generator``
owned by the call takes each state in turn and fills the chunk's slice
of a block buffer (``random(out=...)``). A block is the most whole
chunks whose float64 buffer stays under 128 KiB (3 chunks of 4096 rows;
one chunk when a chunk is larger); the prefilter, ``pow`` and the merge
run once per block, with the block's ``w_max``. The block merge keeps
the per-chunk merge's top-k, since ids still ascend from block to
block. 128 KiB is glibc's default mmap threshold: a larger buffer is
mmapped, and freeing it raises glibc's dynamic threshold, after which
the round's freed 10^6-element buffers stay in the heap (8-chunk blocks
moved ``device1m``'s peak RSS from 102 to 116 MB). What remains per
chunk is a state set and the ``random`` fill; per block, one copy of the
reputations, one ``max`` and one comparison pass. A block whose rows
outnumber k keeps only its own k best (ties included) before the
stable sort. Traced ``device1m`` (n = 10^6, k = 62, 2-core Xeon, numpy
2.4.6, 1 BLAS thread) spent 8.3–13.3 ms per round here against
14.2–19.1 ms building one seeded generator per chunk (four alternating
pairs, each pair 36–41% lower); before that, computing every key took
about 24 ms and sorting every chunk in full about 150 ms.

``required`` ids (the server cluster — they produce the detection
benchmarks) are always included and never count against availability.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from itertools import islice
from typing import Protocol, runtime_checkable

import numpy as np

from ..fl.streams import seed_streams

__all__ = [
    "CohortSampler",
    "UniformSampler",
    "ReputationWeightedSampler",
    "AvailabilityAwareSampler",
    "make_sampler",
    "SAMPLER_NAMES",
]

# Domain-separation salts: each sampler family derives its per-round rng
# from a distinct stream so sharing one seed across samplers is safe.
_SALT_UNIFORM = 0x5A17
_SALT_WEIGHTED = 0x4E57
_SALT_AVAILABLE = 0xAB1E


# Relative margin per unit of prefilter slack, and the slack at which
# the weighted sampler stops prefiltering (derivation: module docstring).
_PREFILTER_MARGIN = 2.0**-20
_PREFILTER_MAX_SLACK = 2.0**18

# Bytes each of the weighted sampler's per-block scratch buffers stays
# under: glibc's default mmap threshold (module docstring).
_SCRATCH_BYTES = 128 * 1024


def _round_rng(salt: int, seed: int, round_idx: int, *extra: int):
    return np.random.default_rng((salt, seed, round_idx, *extra))


def _prefilter_threshold(tau: float, w_max: float) -> float:
    """Lower bound on ``u`` for a key ``u ** (1/w)`` above ``tau``, ``w <= w_max``.

    0.0 lets every row through: ``w_max`` NaN or the slack too large
    (``slack < limit`` is False for NaN and inf), or ``tau`` not a
    positive normal float.
    """
    if not tau >= sys.float_info.min:
        return 0.0
    slack = w_max * (1.0 + abs(math.log(tau)))
    if not slack < _PREFILTER_MAX_SLACK:
        return 0.0
    return tau**w_max * (1.0 - _PREFILTER_MARGIN * (1.0 + slack))


@runtime_checkable
class CohortSampler(Protocol):
    """Protocol every cohort sampler implements."""

    def sample(
        self,
        round_idx: int,
        population,
        cohort_size: int,
        required: tuple[int, ...] = (),
    ) -> np.ndarray:
        """Sorted unique worker ids for one round (includes ``required``)."""
        ...


def _required_array(required, size: int) -> np.ndarray:
    req = np.unique(np.asarray(list(required), dtype=np.int64))
    if req.size and (req[0] < 0 or req[-1] >= size):
        raise ValueError(f"required id outside [0, {size})")
    return req


def _draw_without_replacement(
    rng: np.random.Generator, n: int, k: int, exclude: np.ndarray
) -> np.ndarray:
    """``k`` distinct ids from ``[0, n)`` minus ``exclude``, O(k) memory.

    Rejection sampling keeps memory at O(k) for the cross-device regime
    (k << n); when k is a large fraction of n the rejection rate blows
    up, so a dense permutation fallback (O(n), but then k ~ n anyway)
    takes over.
    """
    avail = n - exclude.size
    if k > avail:
        raise ValueError(f"cannot draw {k} distinct ids from {avail}")
    if k * 2 >= avail:
        # assume_unique keeps the permutation order (the default sorts it)
        pool = np.setdiff1d(rng.permutation(n), exclude, assume_unique=True)
        return pool[:k]
    seen = set(int(e) for e in exclude)
    chosen: list[int] = []
    while len(chosen) < k:
        for v in rng.integers(0, n, size=2 * (k - len(chosen)) + 8).tolist():
            if v not in seen:
                seen.add(v)
                chosen.append(v)
                if len(chosen) == k:
                    break
    return np.asarray(chosen, dtype=np.int64)


def _with_required(req: np.ndarray, extras: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([req, extras.astype(np.int64)]))


class UniformSampler:
    """Uniform without replacement; the cross-device default."""

    name = "uniform"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def sample(self, round_idx, population, cohort_size, required=()):
        n = population.size
        req = _required_array(required, n)
        if cohort_size < 0:
            raise ValueError("cohort_size must be non-negative")
        k = min(cohort_size, n) - req.size
        if k <= 0:
            return req
        if req.size + k >= n:
            return np.arange(n, dtype=np.int64)
        rng = _round_rng(_SALT_UNIFORM, self.seed, round_idx)
        extras = _draw_without_replacement(rng, n, k, exclude=req)
        return _with_required(req, extras)


class ReputationWeightedSampler:
    """Weight ~ ``floor + max(reputation, 0)`` via Efraimidis–Spirakis keys.

    Sampling without replacement with per-item weights: each item gets
    key ``u ** (1/w)`` (u uniform) and the top-k keys win. Keys are
    computed block by block over the population's reputation store with
    a running top-k, so the full weight vector never materializes. Each
    chunk's uniforms come from the stream of ``(seed, round_idx,
    chunk_start)``, which is what lets a scalar oracle replay the
    identical draws. Once the running top-k is full, a block computes
    keys only for the rows whose ``u`` passes the threshold prefilter
    (module docstring) and merges only those keys above its k-th key, so
    most blocks cost their draws and one comparison pass.
    """

    name = "reputation"

    def __init__(self, seed: int = 0, floor: float = 0.05):
        if floor <= 0:
            raise ValueError("floor must be positive (weights must be > 0)")
        self.seed = int(seed)
        self.floor = float(floor)

    def sample(self, round_idx, population, cohort_size, required=()):
        n = population.size
        req = _required_array(required, n)
        if cohort_size < 0:
            raise ValueError("cohort_size must be non-negative")
        k = min(cohort_size, n) - req.size
        if k <= 0:
            return req
        req_ids = req.tolist()
        store = population.reputation_store
        per_block = max(1, (_SCRATCH_BYTES - 1) // (8 * store.chunk_size))
        u = np.empty(min(per_block * store.chunk_size, n))
        reps = np.empty(u.size)
        # every chunk's stream, seeded at once; one generator replays them
        streams = seed_streams(
            _SALT_WEIGHTED, self.seed, round_idx,
            np.arange(0, n, store.chunk_size),
        ).states()
        gen = np.random.Generator(np.random.PCG64(0))
        bits = gen.bit_generator
        # running top-k, ordered by (key desc, id asc); keys stored negated
        best_ids = np.empty(0, dtype=np.int64)
        best_neg = np.empty(0)
        tau = None  # k-th best key once the running top-k is full and finite
        thr, tau_for, w_for = 0.0, None, None  # prefilter for (tau_for, w_for)
        chunks = zip(store.iter_chunks(), streams)
        while block := list(islice(chunks, per_block)):
            (start, _), _ = block[0]
            size = 0
            for (_, values), (state, inc) in block:
                bits.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                gen.random(out=u[size : size + values.size])
                reps[size : size + values.size] = values
                size += values.size
            block_u, block_reps = u[:size], reps[:size]
            if tau is not None:
                w_max = self.floor + max(float(block_reps.max()), 0.0)
                if tau != tau_for or w_max != w_for:
                    thr, tau_for, w_for = _prefilter_threshold(tau, w_max), tau, w_max
            rows = (block_u >= thr).nonzero()[0]
            keys = block_u[rows] ** (
                1.0 / (self.floor + np.maximum(block_reps[rows], 0.0))
            )
            if tau is not None:
                # Exact pruning: blocks arrive in ascending id order, so a
                # later id with key == tau loses the id tiebreak to every
                # incumbent, and NaN keys never pass ``>``.
                hit = (keys > tau).nonzero()[0]
                if not hit.size:
                    continue
                rows, keys = rows[hit], keys[hit]
            ids, neg = rows + start, -keys
            lo = bisect_left(req_ids, start)
            if lo < len(req_ids) and req_ids[lo] < start + size:
                keep = ~np.isin(ids, req[lo:])
                ids, neg = ids[keep], neg[keep]
            if neg.size > k:
                # Only the block's own k best can enter the top-k: keep
                # them, ties at the k-th key included, in id order (every
                # row when the k-th is NaN), so an unpruned block is not
                # sorted whole.
                keep = ~(neg > np.partition(neg, k - 1)[k - 1])
                ids, neg = ids[keep], neg[keep]
            # The incumbents are in (key desc, id asc) order and the new ids
            # ascend past theirs, so a stable sort on the negated key alone
            # keeps the id tiebreak; NaN keys sort last.
            all_ids = np.concatenate([best_ids, ids])
            all_neg = np.concatenate([best_neg, neg])
            order = np.argsort(all_neg, kind="stable")[:k]
            best_ids, best_neg = all_ids[order], all_neg[order]
            if best_neg.size == k and not math.isnan(best_neg[-1]):
                tau = -float(best_neg[-1])
        return _with_required(req, best_ids)


class AvailabilityAwareSampler:
    """Uniform over the ids *available* this round (device check-in model).

    Rejection-samples candidate ids and keeps those the population
    reports available (online per its churn schedule and per-round
    availability draw). Attempts are capped, so a mostly-offline
    population yields a short cohort rather than a livelock — the
    trainer records an explicit skipped round when nobody is left.
    """

    name = "available"

    def __init__(self, seed: int = 0, max_attempt_factor: int = 64):
        if max_attempt_factor <= 0:
            raise ValueError("max_attempt_factor must be positive")
        self.seed = int(seed)
        self.max_attempt_factor = int(max_attempt_factor)

    def sample(self, round_idx, population, cohort_size, required=()):
        n = population.size
        req = _required_array(required, n)
        if cohort_size < 0:
            raise ValueError("cohort_size must be non-negative")
        k = min(cohort_size, n) - req.size
        if k <= 0:
            return req
        rng = _round_rng(_SALT_AVAILABLE, self.seed, round_idx)
        seen = set(int(r) for r in req)
        chosen: list[int] = []
        budget = self.max_attempt_factor * k + 256
        while len(chosen) < k and budget > 0:
            draws = rng.integers(0, n, size=min(budget, 2 * (k - len(chosen)) + 8))
            budget -= draws.size
            fresh = []
            for v in draws.tolist():
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
            # the first available candidates in draw order; one check-in
            # pass over the batch (a draw has no side effects)
            online = population.available_ids(np.array(fresh, dtype=np.int64), round_idx)
            chosen += online[: k - len(chosen)].tolist()
        return _with_required(req, np.asarray(chosen, dtype=np.int64))


SAMPLER_NAMES = ("uniform", "reputation", "available")


def make_sampler(name: str, seed: int = 0, **kwargs) -> CohortSampler:
    """Construct a sampler by registry name."""
    if name == "uniform":
        return UniformSampler(seed=seed, **kwargs)
    if name == "reputation":
        return ReputationWeightedSampler(seed=seed, **kwargs)
    if name == "available":
        return AvailabilityAwareSampler(seed=seed, **kwargs)
    raise ValueError(
        f"unknown sampler {name!r}; available: {', '.join(SAMPLER_NAMES)}"
    )
