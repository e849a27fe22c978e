"""Lazy million-worker registry: per-worker state without per-worker objects.

A cross-device federation registers up to 10^6 workers but trains only a
cohort per round. :class:`WorkerPopulation` therefore stores *recipes*,
not objects: a worker's spec (attack role + parameters), data-partition
seed, RNG seed and availability are all **derived** from its id through
pure functions, so registration costs O(1) memory per worker and the
only per-worker state ever allocated belongs to workers that were
actually sampled (an LRU cache of live :class:`~repro.fl.Worker`
objects, plus saved RNG streams for evicted ones and the chunked
:class:`~repro.population.ReputationStore`).

State ownership (see DESIGN §13):

* population owns: specs/seeds (derived), availability + churn schedule,
  the reputation store, saved RNG states of evicted workers;
* a live cohort owns: materialized ``Worker`` objects (dataset shard,
  RNG) — recreated deterministically on demand;
* the trainer owns: the global model, the network, the round loop.

Determinism contract: materialize → evict → re-materialize yields a
worker whose future RNG draws are identical to one that stayed alive
(``bit_generator.state`` round-trips through the eviction), so cohort
sampling never perturbs training randomness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Mapping

import numpy as np

from ..datasets import Dataset
from ..fl.streams import seed_streams
from ..fl.workers import Worker, WorkerSpec, make_worker
from .store import ReputationStore

__all__ = ["WorkerPopulation"]

_SALT_AVAILABILITY = 0xA1B2
_CHURN_ACTIONS = ("leave", "join")

#: offset folded into per-worker RNG seeds; matches the long-standing
#: experiment convention ``seed + 1000 + worker_id``
SEED_OFFSET = 1000


class _MappingSpecFn:
    """Spec lookup over a ``{worker_id: WorkerSpec}`` mapping.

    A module-level class (not a lambda) so populations built from a
    mapping survive pickling — snapshots and subprocess transfer both
    need the whole population to round-trip through ``pickle``.
    """

    def __init__(self, overrides: Mapping[int, WorkerSpec]):
        self.overrides = dict(overrides)
        self.default = WorkerSpec()

    def __call__(self, worker_id: int) -> WorkerSpec:
        return self.overrides.get(worker_id, self.default)


class WorkerPopulation:
    """Registry of ``size`` workers with O(touched) materialized state."""

    def __init__(
        self,
        size: int,
        *,
        data_fn: Callable[[int], Dataset] | None = None,
        model_fn: Callable[[], object] | None = None,
        spec_fn: Callable[[int], WorkerSpec] | Mapping[int, WorkerSpec] | None = None,
        seed: int = 0,
        worker_kwargs: dict | None = None,
        availability: float = 1.0,
        churn: tuple[tuple[int, int, str], ...] = (),
        cache_size: int = 512,
        initial_reputation: float = 0.0,
        reputation_path: str | None = None,
        reputation_chunk: int = 4096,
    ):
        if size <= 0:
            raise ValueError("population size must be positive")
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        for entry in churn:
            rnd, wid, action = entry
            if rnd < 0 or not 0 <= wid < size:
                raise ValueError(f"bad churn entry {entry!r}")
            if action not in _CHURN_ACTIONS:
                raise ValueError(
                    f"churn action must be one of {_CHURN_ACTIONS}, got {action!r}"
                )
        self.size = int(size)
        self.seed = int(seed)
        self._data_fn = data_fn
        self._model_fn = model_fn
        if spec_fn is None:
            self._spec_fn = None
        elif callable(spec_fn):
            self._spec_fn = spec_fn
        else:
            self._spec_fn = _MappingSpecFn(spec_fn)
        self._worker_kwargs = dict(worker_kwargs or {})
        self.availability = float(availability)
        self.churn = tuple(churn)
        self.cache_size = int(cache_size)
        self._cache: OrderedDict[int, Worker] = OrderedDict()
        self._pinned = False  # from_workers: never evict the seed roster
        self._rng_states: dict[int, dict] = {}
        self._seen: set[int] = set()
        self._left: set[int] = set()
        self._churn_applied_through = -1
        self._store: ReputationStore | None = None
        self._initial_reputation = float(initial_reputation)
        self._reputation_path = reputation_path
        self._reputation_chunk = int(reputation_chunk)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_workers(cls, workers: list[Worker], **kwargs) -> "WorkerPopulation":
        """A population over a ready-made list of workers (ids 0..N-1).

        The way to train an explicit roster:
        ``FederatedTrainer(model, WorkerPopulation.from_workers(workers),
        ...)``. The roster is pinned in the cache (never evicted, no
        data/model recipes needed), so every cohort reuses these exact
        worker objects.
        """
        if not workers:
            raise ValueError("need at least one worker")
        ids = sorted(w.worker_id for w in workers)
        if ids != list(range(len(workers))):
            raise ValueError("worker ids must be exactly 0..N-1")
        pop = cls(len(workers), cache_size=len(workers), **kwargs)
        for w in sorted(workers, key=lambda w: w.worker_id):
            pop._cache[w.worker_id] = w
        pop._pinned = True
        return pop

    # -- derived per-worker state ----------------------------------------------

    def spec(self, worker_id: int) -> WorkerSpec:
        """The declarative recipe for one worker (default honest)."""
        self._check_id(worker_id)
        if self._spec_fn is None:
            return WorkerSpec()
        return self._spec_fn(worker_id)

    def seed_for(self, worker_id: int) -> int:
        """The worker's private RNG seed (derived, never stored)."""
        return self.seed + SEED_OFFSET + worker_id

    def _check_id(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.size:
            raise IndexError(f"worker id {worker_id} outside [0, {self.size})")

    # -- availability / churn --------------------------------------------------

    def begin_round(self, round_idx: int) -> None:
        """Apply the churn schedule up to and including ``round_idx``."""
        if round_idx <= self._churn_applied_through:
            return
        for rnd, wid, action in self.churn:
            if self._churn_applied_through < rnd <= round_idx:
                if action == "leave":
                    self._left.add(wid)
                else:
                    self._left.discard(wid)
        self._churn_applied_through = round_idx

    def is_live(self, worker_id: int) -> bool:
        """False once the worker churned out (until it rejoins)."""
        return worker_id not in self._left

    def is_available(self, worker_id: int, round_idx: int) -> bool:
        """Live *and* checked-in this round (seeded per-(round, id) draw).

        The draw depends only on ``(population seed, round, id)`` — not
        on query order — so samplers may probe candidates in any order
        without perturbing each other.
        """
        self._check_id(worker_id)
        return self.available_ids([worker_id], round_idx).size == 1

    def available_ids(
        self, ids: np.ndarray, round_idx: int, required=()
    ) -> np.ndarray:
        """The ids of ``ids`` that take part in this round, in order.

        An id takes part if it is live and, unless it is ``required``,
        checked in: the first ``random()`` of
        ``default_rng((salt, seed, round, id))`` is below the
        availability. Churn is one ``isin`` over the array; the check-in
        draws, seeded in one pass over the ids that need one, happen only
        when availability is below 1.
        """
        ids = np.asarray(ids, dtype=np.int64)
        keep = np.ones(ids.size, dtype=bool)
        if self._left:
            keep &= ~np.isin(ids, np.fromiter(self._left, np.int64, len(self._left)))
        if self.availability < 1.0:
            draw = keep & ~np.isin(ids, np.asarray(list(required), dtype=np.int64))
            if draw.any():
                streams = seed_streams(
                    _SALT_AVAILABILITY, self.seed, round_idx, ids[draw]
                )
                keep[draw] = streams.first_random() < self.availability
        return ids[keep]

    @property
    def offline_count(self) -> int:
        return len(self._left)

    # -- materialization -------------------------------------------------------

    def materialize(self, worker_id: int) -> Worker:
        """The live ``Worker`` for one id, building (or reviving) it."""
        self._check_id(worker_id)
        worker = self._cache.get(worker_id)
        if worker is not None:
            self._cache.move_to_end(worker_id)
            return worker
        if self._data_fn is None or self._model_fn is None:
            raise RuntimeError(
                f"worker {worker_id} is not cached and the population has "
                f"no data_fn/model_fn recipes to rebuild it"
            )
        worker = make_worker(
            self.spec(worker_id),
            worker_id,
            self._data_fn(worker_id),
            self._model_fn,
            seed=self.seed_for(worker_id),
            **self._worker_kwargs,
        )
        state = self._rng_states.pop(worker_id, None)
        if state is not None:
            # Revive the evicted worker's RNG stream mid-sequence so its
            # future draws match a worker that was never evicted.
            worker.rng.bit_generator.state = state
        self._cache[worker_id] = worker
        return worker

    def checkout(self, ids, round_idx: int | None = None) -> list[Worker]:
        """Materialize a cohort (ascending id order) and mark it seen.

        A repeated id raises ``ValueError``: the cohort would hold one
        ``Worker`` twice, and training it twice advances its stream twice.

        The cache is trimmed back to ``max(cache_size, len(ids))``
        afterwards, saving evicted workers' RNG states — peak live-worker
        memory is O(cohort), not O(ever-sampled).
        """
        ids = sorted(int(w) for w in ids)
        dups = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
        if dups:
            raise ValueError(f"duplicate worker ids in cohort: {dups}")
        workers = [self.materialize(wid) for wid in ids]
        self._seen.update(ids)
        if not self._pinned:
            limit = max(self.cache_size, len(ids))
            while len(self._cache) > limit:
                wid, worker = self._cache.popitem(last=False)
                self._rng_states[wid] = worker.rng.bit_generator.state
        return workers

    @property
    def cached_count(self) -> int:
        return len(self._cache)

    # -- round-decision state --------------------------------------------------

    @property
    def reputation_store(self) -> ReputationStore:
        """The out-of-core reputation ledger (allocated on first use)."""
        if self._store is None:
            self._store = ReputationStore(
                self.size,
                initial=self._initial_reputation,
                chunk_size=self._reputation_chunk,
                path=self._reputation_path,
            )
        return self._store

    def write_reputations(self, reputations: dict[int, float]) -> int:
        """Write one round's reputation verdicts back into the store."""
        return self.reputation_store.write_round(reputations)

    # -- introspection ---------------------------------------------------------

    @property
    def seen_count(self) -> int:
        """Distinct workers ever sampled into a cohort."""
        return len(self._seen)

    def coverage(self) -> float:
        """Fraction of the registered population ever sampled."""
        return len(self._seen) / self.size
