"""Fleet-batched local training: all workers' SGD steps as one kernel.

Each worker's local minibatch SGD, run one worker at a time, would cost
N sequential forward/backward passes over N replicas of the *same*
architecture. :class:`FleetLocalEngine` is the one local-training path:
it stacks the workers' parameters along a leading worker axis (see
:mod:`repro.nn.fleet`) and runs each local step for the whole fleet as
single batched NumPy calls.

Fidelity contract (differential-tested to <= 1e-8 against the literal
per-worker loop, ``tests/fl/scalar_sgd.py``, and byte-identical where
only layout changes):

* **Minibatch sampling** draws from each worker's *own*
  ``np.random.default_rng(seed)`` stream exactly what a worker training
  alone would draw with ``rng.integers(0, n, size=b)``, but for the whole
  group at once: each group's :class:`~repro.fl.streams.MinibatchStreams`
  holds its members' PCG64 states as arrays (state, increment, and the
  ``has_uint32``/``uinteger`` buffer) and advances them with one
  vectorized kernel per local step. The group owns those streams between
  draws; ``Worker.rng`` is the one way to reach a worker's generator,
  and reading it hands the stream back (written into the generator),
  so attacker draws, population eviction and snapshots see it where the
  per-worker calls would have left it. The group re-reads only handed-
  back rows at its next draw. A draw that hits a Lemire rejection
  (chance about ``size/2^32``) falls back to that worker's own
  ``integers`` call. The draws land in a preallocated ``(n, b)`` index
  array; shifted by each worker's row offset into the group's stacked
  shards, they gather the whole fleet's minibatch with one ``take`` per
  array.
* **Finalize** turns the trained parameters into gradients in place,
  ``(theta - params) / lr`` on the gathered ``(n, D)`` copy. That matrix
  *is* the round's upload: honest rows are never copied out, and no
  per-worker :class:`~repro.fl.workers.WorkerUpdate` is built.
* **Attacker transforms** (sign-flip, probabilistic, noise-calibration,
  collusion, sample-count fraud) commute with batching: they only read
  the finished local gradient, so each worker whose class overrides
  :meth:`Worker.finalize_update` runs it post-hoc on its row and the
  result overwrites that row, in worker order — the same draws from the
  same generators as the per-worker loop (reading ``rng`` hands the stream
  back first).
* **Groups**: workers are grouped by architecture signature (computed
  once per distinct ``model_fn``) + effective batch size + local
  iteration count, each group batched independently. An architecture
  with a layer the fleet has no kernel for raises ``ValueError`` naming
  the layer. Workers that never train (``trains_locally = False``, the
  free-riders) are the only ones whose ``compute_update`` runs on its
  own, one row each.

Parallel execution (``backend="thread"``): fleet groups are cut into
one shard per pool slot and dispatched through an
:class:`~repro.parallel.backend.ExecutionBackend`. Each worker's draws
still come from its own stream in the same order (each shard owns the
stream arrays of its disjoint worker set and samples in-task), and
``finalize_update`` runs in the same task right after its shard's GEMMs
— so the thread backend is byte-identical to serial. Shard tasks never
touch the shared telemetry hub; the coordinating thread folds pool stats
into ``parallel.*`` afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..nn.fleet import FleetSequential, FleetSoftmaxCrossEntropy, fleet_signature
from ..parallel.backend import ExecutionBackend, emit_parallel_telemetry, make_backend
from ..parallel.blas import blas_limits
from ..population.sharding import balanced_shards
from ..telemetry import Telemetry, get_telemetry
from .streams import MinibatchStreams
from .workers import Worker, WorkerUpdate

__all__ = ["FleetLocalEngine", "LocalUpdates"]

#: smallest shard worth a dispatch — below this, task overhead dominates
_MIN_PARALLEL_SHARD = 8


@dataclass(eq=False)
class LocalUpdates(Mapping):
    """One round's local updates, one row per live worker.

    The round carries these arrays from the fleet to the aggregate. As a
    read-only ``Mapping`` from worker id to
    :class:`~repro.fl.workers.WorkerUpdate` it is also a lazy per-worker
    view: each lookup builds one update around a row view, for test
    oracles and the rare consumer that wants one worker.
    """

    #: ``(K,)`` int64, ascending
    worker_ids: np.ndarray
    #: ``(K, D)`` float64, read-only; row ``i`` is ``worker_ids[i]``'s upload
    gradients: np.ndarray
    #: ``(K,)`` int64 claimed sample counts
    sample_counts: np.ndarray
    #: ``(K,)`` bool ground truth: the upload was attacked
    attacked: np.ndarray
    #: ``(K, B)`` non-trainable state, or None when no row carries any
    buffers: np.ndarray | None = None
    #: ``(K,)`` bool: the row's worker reported buffers
    has_buffers: np.ndarray | None = None

    @cached_property
    def row_sqnorms(self) -> np.ndarray:
        """``||g_i||²`` per row: one reduction over the matrix, cached."""
        return np.einsum("ij,ij->i", self.gradients, self.gradients)

    @cached_property
    def finite(self) -> np.ndarray:
        """Rows the round admits: no NaN or ±inf entry, and none so large
        (beyond ~1e154) that the squared norm overflows."""
        return np.isfinite(self.row_sqnorms)

    def row(self, worker_id: int) -> int | None:
        """Row index of ``worker_id``, or None if it has no update."""
        ids = self.worker_ids
        i = int(np.searchsorted(ids, worker_id))
        return i if i < ids.size and ids[i] == worker_id else None

    def __getitem__(self, worker_id: int) -> WorkerUpdate:
        i = self.row(worker_id)
        if i is None:
            raise KeyError(worker_id)
        buffers = None
        if self.buffers is not None and self.has_buffers[i]:
            buffers = self.buffers[i]
        return WorkerUpdate(
            int(worker_id),
            self.gradients[i],
            int(self.sample_counts[i]),
            attacked=bool(self.attacked[i]),
            buffers=buffers,
        )

    def __iter__(self):
        return iter(self.worker_ids.tolist())

    def __len__(self) -> int:
        return self.worker_ids.size


def _overrides_finalize(worker: Worker) -> bool:
    return type(worker).finalize_update is not Worker.finalize_update


class _FleetGroup:
    """One batch of workers sharing architecture, batch size and iters.

    The members' shards are stacked once into ``x_all``/``y_all`` (rows
    of worker ``i`` start at ``offsets[i]``), so each local step gathers
    the whole fleet's minibatch with one ``take`` per array. With
    ``persistent=False`` (shard-streaming mode) the stacked
    :class:`FleetSequential` and the stacked shards are rebuilt per round
    and released afterwards, so peak memory is one shard's worth instead
    of the whole cohort's.
    """

    def __init__(self, workers: list[Worker], persistent: bool = True):
        self.workers = workers
        self._persistent = persistent
        self.loss_fn = FleetSoftmaxCrossEntropy()
        self.lrs = np.asarray([w.lr for w in workers], dtype=np.float64)
        self.batch = min(workers[0].batch_size, len(workers[0].dataset))
        self.local_iters = workers[0].local_iters
        self.sizes = [len(w.dataset) for w in workers]
        self.offsets = np.cumsum([0] + self.sizes[:-1], dtype=np.int64)[:, None]
        #: per-step minibatch rows, drawn in place, then shifted to stack rows
        self.idx = np.empty((len(workers), self.batch), dtype=np.int64)
        self.streams = MinibatchStreams(self.sizes, self.batch)
        #: members whose upload policy is not the identity, by position
        self.transforms = [i for i, w in enumerate(workers) if _overrides_finalize(w)]
        #: each member's row in the round's upload matrix (set at regroup)
        self.rows = np.arange(len(workers))
        self._template = None
        self._model: FleetSequential | None = None
        self._data: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def model(self) -> FleetSequential:
        if self._model is None:
            if self._template is None:
                self._template = self.workers[0].model_fn()
            self._model = FleetSequential(self._template, len(self.workers))
        return self._model

    @property
    def data(self) -> tuple[np.ndarray, np.ndarray]:
        """The members' shards stacked as ``(x_all, y_all)``.

        Stacked in the minibatch dtypes (float64 features, int64 labels)
        by row assignment, so every value converts exactly as a per-worker
        gather into a float64 minibatch does.
        """
        if self._data is None:
            x_all = np.empty((sum(self.sizes),) + self.workers[0].dataset.x.shape[1:])
            y_all = np.empty(len(x_all), dtype=np.int64)
            for w, lo, size in zip(self.workers, self.offsets[:, 0], self.sizes):
                x_all[lo : lo + size] = w.dataset.x
                y_all[lo : lo + size] = w.dataset.y
            self._data = (x_all, y_all)
        return self._data

    def release(self) -> None:
        """Drop the stacked replica and shards between rounds (shard mode)."""
        if not self._persistent:
            self._model = None
            self._data = None


def _group_keys(workers: list[Worker]) -> dict[int, tuple]:
    """Fleet grouping key per training worker id.

    The architecture signature is computed once per distinct
    ``model_fn``; a worker whose architecture has no fleet kernel raises
    ``ValueError``. Workers that never train get no key.
    """
    signatures: dict = {}
    keys = {}
    for w in workers:
        if not w.trains_locally:
            continue
        sig = signatures.get(w.model_fn)
        if sig is None:
            try:
                sig = signatures[w.model_fn] = fleet_signature(w.model_fn())
            except ValueError as exc:
                raise ValueError(f"worker {w.worker_id}: {exc}") from None
        keys[w.worker_id] = (
            sig,
            w.dataset.x.shape[1:],
            min(w.batch_size, len(w.dataset)),
            w.local_iters,
        )
    return keys


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
        ids = [w.worker_id for w in self.workers]
        dups = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
        if dups:
            # a repeated worker would train twice: two minibatch draws from
            # its stream, and one of its two updates silently dropped
            raise ValueError(f"duplicate worker ids: {dups}")
        self._keys = _group_keys(self.workers)
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
        self._scalar_rows: list[int] = []
        self._ids = self._counts = np.zeros(0, dtype=np.int64)
        self._grouped_for: frozenset[int] | None = None

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
        live = [w for w in self.workers if w.worker_id not in exclude]
        for w in live:
            key = self._keys.get(w.worker_id)
            if key is None:
                self._scalar.append(w)
            else:
                by_key.setdefault(key, []).append(w)
        self._groups = []
        for members in by_key.values():
            for shard_members, persistent in self._split_members(members):
                self._groups.append(_FleetGroup(shard_members, persistent))
        self._grouped_for = exclude
        # The round's row layout: live workers in ascending id order, each
        # group's members at their rows. Claimed sample counts are fixed
        # per worker, so they are read once per grouping.
        self._ids = np.fromiter((w.worker_id for w in live), np.int64, len(live))
        self._counts = np.fromiter((w.num_samples for w in live), np.int64, len(live))
        row = {wid: i for i, wid in enumerate(self._ids.tolist())}
        for group in self._groups:
            group.rows = np.fromiter(
                (row[w.worker_id] for w in group.workers), np.intp, len(group.workers)
            )
        self._scalar_rows = [row[w.worker_id] for w in self._scalar]
        self._ids.flags.writeable = self._counts.flags.writeable = False
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
        prof: Telemetry | None = None,
    ) -> tuple:
        """Train one group; its ``(rows, grads, buffers, attacked, has_buffers)``."""
        prof = self.profiler if prof is None else prof
        fleet, n = group.model, len(group.workers)
        with prof.phase("fleet.load"):
            fleet.load_flat_params(theta)
            if (
                global_buffers is not None
                and global_buffers.size
                and fleet.num_buffer_values
            ):
                fleet.load_flat_buffers(global_buffers)
        x_all, y_all = group.data
        idx = group.idx
        for _ in range(group.local_iters):
            with prof.phase("fleet.sample"):
                group.streams.draw(group.workers, idx)
                idx += group.offsets
                xb = x_all.take(idx, axis=0)
                yb = y_all.take(idx)
            with prof.phase("fleet.forward"):
                logits = fleet.forward(xb, training=True)
                group.loss_fn(logits, yb)
            with prof.phase("fleet.backward"):
                fleet.backward(group.loss_fn.backward())
            with prof.phase("fleet.step"):
                fleet.sgd_step(group.lrs)
        with prof.phase("fleet.finalize"):
            # (theta - params) / lr, in place on the gathered params copy
            grads = fleet.get_flat_params()
            np.subtract(theta, grads, out=grads)
            grads /= group.lrs[:, None]
            bufs = fleet.get_flat_buffers() if fleet.num_buffer_values else None
            attacked = np.zeros(n, dtype=bool)
            has_bufs = None if bufs is None else np.ones(n, dtype=bool)
            for i in group.transforms:
                upd = group.workers[i].finalize_update(
                    grads[i], bufs[i] if bufs is not None else None
                )
                grads[i] = upd.gradient
                attacked[i] = upd.attacked
                if bufs is not None:
                    has_bufs[i] = upd.buffers is not None
                    if upd.buffers is not None:
                        bufs[i] = upd.buffers
        group.release()
        prof.count("fleet.batched_workers", n * group.local_iters)
        return group.rows, grads, bufs, attacked, has_bufs

    def _run_groups_threaded(
        self, theta: np.ndarray, global_buffers: np.ndarray | None
    ) -> list[tuple]:
        """Thread path: the serial kernel body per shard, GIL-released GEMMs.

        Safe without locks by construction: worker sets are disjoint
        across groups, so each group's stream arrays, index, stacked-shard
        and result arrays never overlap. Each task profiles into a
        disabled hub — the shared hub is single-writer — and the
        coordinator emits the pooled stats afterwards.
        """
        quiet = Telemetry(enabled=False)
        tasks = [
            (self._run_group, (group, theta, global_buffers, quiet))
            for group in self._groups
        ]
        with blas_limits(1):
            parts = self.backend.run(tasks)
        emit_parallel_telemetry(self.profiler, "local_compute", self.backend)
        for group in self._groups:
            self.profiler.count(
                "fleet.batched_workers", len(group.workers) * group.local_iters
            )
        return parts

    def compute_updates(
        self,
        theta: np.ndarray,
        global_buffers: np.ndarray | None = None,
        exclude: set[int] | None = None,
    ) -> LocalUpdates:
        """All live workers' uploads for one round, rows in ascending id order.

        A single fleet group already holds every row in that order, so its
        gradient matrix is returned as is; otherwise each group's rows and
        each non-training worker's update are placed into one matrix.
        """
        exclude = frozenset(exclude or ())
        if exclude != self._grouped_for:
            self._regroup(exclude)
        if not self._parallel or not self._groups:
            parts = [
                self._run_group(group, theta, global_buffers)
                for group in self._groups
            ]
        else:
            parts = self._run_groups_threaded(theta, global_buffers)
        for w, row in zip(self._scalar, self._scalar_rows):
            upd = w.compute_update(theta, global_buffers)
            has = upd.buffers is not None
            parts.append((
                [row], np.asarray(upd.gradient)[None],
                upd.buffers[None] if has else None,
                [upd.attacked], [True] if has else None,
            ))
        if len(parts) == 1 and not self._scalar:
            _, grads, bufs, attacked, has_bufs = parts[0]
        else:
            grads, bufs, attacked, has_bufs = _place(
                parts, self._ids.size, theta.size
            )
        grads.flags.writeable = False
        return LocalUpdates(
            worker_ids=self._ids,
            gradients=grads,
            sample_counts=self._counts,
            attacked=attacked,
            buffers=bufs,
            has_buffers=has_bufs,
        )


def _place(parts: list[tuple], k: int, dim: int) -> tuple:
    """Scatter per-group ``(rows, grads, buffers, attacked, has_buffers)``
    pieces into one ``k``-row layout."""
    grads = np.empty((k, dim))
    attacked = np.zeros(k, dtype=bool)
    width = next((p[2].shape[1] for p in parts if p[2] is not None), None)
    bufs = None if width is None else np.zeros((k, width))
    has_bufs = None if width is None else np.zeros(k, dtype=bool)
    for rows, g, b, att, has in parts:
        grads[rows] = g
        attacked[rows] = att
        if b is not None:
            bufs[rows] = b
            has_bufs[rows] = has
    return grads, bufs, attacked, has_bufs
