"""Fleet-batched local training: all workers' SGD steps as one kernel.

The scalar trainer asks each worker in turn to run its local minibatch
SGD — N sequential forward/backward passes over N private replicas of
the *same* architecture. :class:`FleetLocalEngine` replaces that loop:
it stacks eligible workers' parameters along a leading worker axis (see
:mod:`repro.nn.fleet`) and runs each local step for the whole fleet as
single batched NumPy calls.

Fidelity contract (differential-tested to <= 1e-8 against the scalar
path, and byte-identical where only layout changes):

* **Minibatch sampling** draws through each worker's *own*
  ``np.random.default_rng(seed)`` generator, one ``integers`` call per
  worker per local iteration — the exact calls the scalar
  ``Worker._local_gradient`` makes, in the same per-worker order — so
  every worker's RNG stream is reproduced index-for-index and any draws
  an attacker makes afterwards (coin flips, noise) line up too.
* **Attacker transforms** (sign-flip, probabilistic, noise-calibration,
  collusion, sample-count fraud) commute with batching: they only read
  the finished local gradient, so they run post-hoc per row via
  :meth:`Worker.finalize_update`.
* **Fallbacks**: workers with a custom optimizer, a fleet-ineligible
  architecture (e.g. Dropout), a heterogeneous ``model_fn``, or no local
  training at all (free-riders) transparently keep the scalar
  ``compute_update`` path; eligible workers are grouped by architecture
  signature + effective batch size + local iteration count, each group
  batched independently.

Parallel execution (``backend="thread"``): fleet groups are cut into
one shard per pool slot and dispatched through an
:class:`~repro.parallel.backend.ExecutionBackend`. Each worker's draws
still come from its own generator in the same order (threads sample
in-task over disjoint worker sets), and ``finalize_update`` runs in the
same task right after its shard's GEMMs — so the thread backend is
byte-identical to serial. Shard tasks never touch the shared telemetry
hub; the coordinating thread folds pool stats into ``parallel.*``
afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from ..nn.fleet import FleetSequential, FleetSoftmaxCrossEntropy, fleet_signature
from ..parallel.backend import ExecutionBackend, emit_parallel_telemetry, make_backend
from ..parallel.blas import blas_limits
from ..population.sharding import balanced_shards
from ..telemetry import Telemetry, get_telemetry
from .workers import Worker, WorkerUpdate

__all__ = ["FleetLocalEngine"]

#: smallest shard worth a dispatch — below this, task overhead dominates
_MIN_PARALLEL_SHARD = 8


class _FleetGroup:
    """One batch of workers sharing architecture, batch size and iters.

    With ``persistent=False`` (shard-streaming mode) the stacked
    :class:`FleetSequential` is built lazily per round and released
    afterwards, so peak parameter memory is one shard's worth instead of
    the whole cohort's.
    """

    def __init__(self, workers: list[Worker], persistent: bool = True):
        self.workers = workers
        self._persistent = persistent
        self._model: FleetSequential | None = (
            FleetSequential(workers[0].model, len(workers)) if persistent else None
        )
        self.loss_fn = FleetSoftmaxCrossEntropy()
        self.lrs = np.asarray([w.lr for w in workers], dtype=np.float64)
        self.batch = min(workers[0].batch_size, len(workers[0].dataset))
        self.local_iters = workers[0].local_iters

    @property
    def model(self) -> FleetSequential:
        if self._model is None:
            self._model = FleetSequential(
                self.workers[0].model, len(self.workers)
            )
        return self._model

    def release(self) -> None:
        """Drop the stacked replica between rounds (shard mode only)."""
        if not self._persistent:
            self._model = None


def _group_key(worker: Worker) -> tuple | None:
    """Grouping key for fleet batching, or ``None`` for scalar fallback."""
    if not worker.trains_locally or worker.optimizer is not None:
        return None
    sig = fleet_signature(worker.model)
    if sig is None:
        return None
    return (
        sig,
        worker.dataset.x.shape[1:],
        min(worker.batch_size, len(worker.dataset)),
        worker.local_iters,
    )


class FleetLocalEngine:
    """Computes every worker's round update with fleet-batched kernels."""

    def __init__(
        self,
        workers: list[Worker],
        profiler: Telemetry | None = None,
        shard_size: int | None = None,
        backend: ExecutionBackend | str | None = None,
    ):
        if shard_size is not None and shard_size <= 0:
            raise ValueError("shard_size must be positive (or None)")
        self.workers = sorted(workers, key=lambda w: w.worker_id)
        self.profiler = profiler if profiler is not None else get_telemetry()
        # Shard streaming: cap every fleet group at ``shard_size`` workers
        # and build/release each shard's stacked replica lazily, bounding
        # peak parameter memory by shard size instead of cohort size. The
        # per-worker arithmetic is independent of the stacking axis, so
        # sharded results are bit-identical to the unsharded fleet (see
        # tests/population/test_shard_streaming.py).
        self.shard_size = shard_size
        self.backend = make_backend(backend) if isinstance(backend, str) else backend
        self._groups: list[_FleetGroup] = []
        self._scalar: list[Worker] = []
        self._grouped_for: frozenset[int] | None = None
        # Last round's minibatch draws, ``{worker_id: [indices per iter]}``
        # — kept for the RNG-fidelity tests; negligible memory.
        self.last_indices: dict[int, list[np.ndarray]] = {}

    @property
    def _parallel(self) -> bool:
        return self.backend is not None and self.backend.name != "serial"

    def _split_members(self, members: list[Worker]) -> list[tuple[list[Worker], bool]]:
        """Cut one architecture group into fleet shards for the backend.

        Serial + no shard cap: one persistent group (the fast path).
        Explicit ``shard_size``: fixed-size windows, lazily-built replicas
        (the memory-bounding contract from PR 6). Parallel + auto: one
        near-equal shard per pool slot, floored at ``_MIN_PARALLEL_SHARD``
        workers so task overhead never dominates tiny cohorts.
        """
        n = len(members)
        if self.shard_size is not None:
            if n <= self.shard_size:
                return [(members, True)]
            return [
                (members[lo : lo + self.shard_size], False)
                for lo in range(0, n, self.shard_size)
            ]
        if self._parallel and self.backend.pool_size > 1:
            shards = min(
                self.backend.pool_size,
                max(1, math.ceil(n / _MIN_PARALLEL_SHARD)),
            )
            return [(members[lo:hi], True) for lo, hi in balanced_shards(n, shards)]
        return [(members, True)]

    def _regroup(self, exclude: frozenset[int]) -> None:
        """(Re)build fleet groups for the current live-worker set."""
        by_key: dict[tuple, list[Worker]] = {}
        self._scalar = []
        for w in self.workers:
            if w.worker_id in exclude:
                continue
            key = _group_key(w)
            if key is None:
                self._scalar.append(w)
            else:
                by_key.setdefault(key, []).append(w)
        self._groups = []
        for members in by_key.values():
            for shard_members, persistent in self._split_members(members):
                self._groups.append(_FleetGroup(shard_members, persistent))
        self._grouped_for = exclude
        # Fleet-shape telemetry, re-emitted only when the grouping
        # actually changes (worker failure, reselection) — near-zero
        # steady-state cost, and the trace records every fleet reshape.
        prof = self.profiler
        prof.gauge("fleet.groups", len(self._groups))
        prof.gauge("fleet.scalar_workers", len(self._scalar))
        if self._groups:
            prof.register_histogram(
                "fleet.group_size", (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
            )
            prof.observe_many(
                "fleet.group_size", [len(g.workers) for g in self._groups]
            )

    def _run_group(
        self,
        group: _FleetGroup,
        theta: np.ndarray,
        global_buffers: np.ndarray | None,
        updates: dict[int, WorkerUpdate],
        prof: Telemetry | None = None,
    ) -> None:
        prof = self.profiler if prof is None else prof
        fleet, n, b = group.model, len(group.workers), group.batch
        with prof.phase("fleet.load"):
            fleet.load_flat_params(theta)
            if (
                global_buffers is not None
                and global_buffers.size
                and fleet.num_buffer_values
            ):
                fleet.load_flat_buffers(global_buffers)
        feat = group.workers[0].dataset.x.shape[1:]
        xb = np.empty((n, b) + feat)
        yb = np.empty((n, b), dtype=np.int64)
        for _ in range(group.local_iters):
            with prof.phase("fleet.sample"):
                for i, w in enumerate(group.workers):
                    idx = w.rng.integers(0, len(w.dataset), size=b)
                    self.last_indices[w.worker_id].append(idx)
                    xb[i] = w.dataset.x[idx]
                    yb[i] = w.dataset.y[idx]
            with prof.phase("fleet.forward"):
                logits = fleet.forward(xb, training=True)
                group.loss_fn(logits, yb)
            with prof.phase("fleet.backward"):
                fleet.backward(group.loss_fn.backward())
            with prof.phase("fleet.step"):
                fleet.sgd_step(group.lrs)
        with prof.phase("fleet.finalize"):
            grads = (theta[None, :] - fleet.get_flat_params()) / group.lrs[:, None]
            bufs = fleet.get_flat_buffers() if fleet.num_buffer_values else None
            for i, w in enumerate(group.workers):
                buffers = bufs[i] if bufs is not None else None
                updates[w.worker_id] = w.finalize_update(grads[i], buffers)
        group.release()
        prof.count("fleet.batched_workers", n * group.local_iters)

    def _run_groups_threaded(
        self,
        theta: np.ndarray,
        global_buffers: np.ndarray | None,
        updates: dict[int, WorkerUpdate],
    ) -> None:
        """Thread path: the serial kernel body per shard, GIL-released GEMMs.

        Safe without locks by construction: worker sets are disjoint
        across groups, so the per-worker RNG draws, ``last_indices``
        appends and ``updates`` writes all touch distinct keys. Each task
        profiles into a disabled hub — the shared hub is single-writer —
        and the coordinator emits the pooled stats afterwards.
        """
        quiet = Telemetry(enabled=False)
        tasks = [
            (self._run_group, (group, theta, global_buffers, updates, quiet))
            for group in self._groups
        ]
        with blas_limits(1):
            self.backend.run(tasks)
        emit_parallel_telemetry(self.profiler, "local_compute", self.backend)
        for group in self._groups:
            self.profiler.count(
                "fleet.batched_workers", len(group.workers) * group.local_iters
            )

    def compute_updates(
        self,
        theta: np.ndarray,
        global_buffers: np.ndarray | None = None,
        exclude: set[int] | None = None,
    ) -> dict[int, WorkerUpdate]:
        """All live workers' uploads for one round, keyed by worker id.

        Returns the dict in ascending worker-id order — the same insertion
        order the scalar loop produces — so downstream consumers that
        iterate it (the lossy network's per-link RNG, the mechanism) see
        an identical sequence.
        """
        exclude = frozenset(exclude or ())
        if exclude != self._grouped_for:
            self._regroup(exclude)
        self.last_indices = {
            w.worker_id: []
            for g in self._groups
            for w in g.workers
        }
        updates: dict[int, WorkerUpdate] = {}
        if not self._parallel or not self._groups:
            for group in self._groups:
                self._run_group(group, theta, global_buffers, updates)
        else:
            self._run_groups_threaded(theta, global_buffers, updates)
        for w in self._scalar:
            updates[w.worker_id] = w.compute_update(theta, global_buffers)
        return {wid: updates[wid] for wid in sorted(updates)}
