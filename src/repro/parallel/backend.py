"""Execution backends: one API over a serial loop and a thread pool.

The one hot path this package shards is fleet local SGD: per-worker
rows of stacked GEMMs, so the orchestration it needs is deliberately
small::

    backend = make_backend("thread", max_workers=4)
    results = backend.run([(fn, args, kwargs), ...])   # task-order results

The contract every backend honours:

* **Ordered reduce** — ``run`` returns results in *task order* no matter
  which shard finishes first, so a caller that concatenates them gets
  byte-identical output to the serial loop.
* **Original tracebacks** — a task that raises surfaces the original
  exception object; both backends re-raise it with its own stack.
* **Per-task stats** — after each ``run``, ``last_stats`` holds one
  ``{"queue_wait_s", "run_s"}`` dict per task (monotonic-clock seconds),
  which the callers fold into ``parallel.*`` telemetry.

The thread pool is persistent: created once and reused across rounds.
Callers pin BLAS to one thread per shard around a dispatch
(:func:`repro.parallel.blas.blas_limits`), the guard against
``pool_size x blas_threads`` oversubscription.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "auto_workers",
    "backend_summary",
    "make_backend",
]

BACKENDS = ("serial", "thread")


def auto_workers() -> int:
    """Usable core count: CPU affinity mask when set, else cpu_count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _normalize_task(task):
    """Accept ``(fn, args)`` or ``(fn, args, kwargs)``."""
    if len(task) == 2:
        fn, args = task
        return fn, args, {}
    fn, args, kwargs = task
    return fn, args, kwargs or {}


class ExecutionBackend:
    """Common surface; concrete backends implement ``_execute``."""

    name: str = "?"
    pool_size: int = 1

    def __init__(self) -> None:
        #: per-task ``{"queue_wait_s", "run_s"}`` dicts for the last run
        self.last_stats: list[dict] = []

    def run(self, tasks) -> list:
        """Execute ``tasks`` (``(fn, args[, kwargs])`` tuples), in order."""
        tasks = [_normalize_task(t) for t in tasks]
        if not tasks:
            self.last_stats = []
            return []
        return self._execute(tasks)

    def map(self, fn, args_list) -> list:
        """Convenience: one function over many positional-arg tuples."""
        return self.run([(fn, args) for args in args_list])

    def _execute(self, tasks) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent; no-op for serial)."""


class SerialBackend(ExecutionBackend):
    """Run every task inline — the differential oracle for the thread pool."""

    name = "serial"
    pool_size = 1

    def _execute(self, tasks) -> list:
        results = []
        stats = []
        for fn, args, kwargs in tasks:
            t0 = time.monotonic()
            results.append(fn(*args, **kwargs))
            stats.append({"queue_wait_s": 0.0, "run_s": time.monotonic() - t0})
        self.last_stats = stats
        return results


class ThreadBackend(ExecutionBackend):
    """Persistent thread pool; cheap because the big NumPy kernels
    (batched matmul, ufuncs, reductions) release the GIL."""

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive (or None for auto)")
        self.pool_size = auto_workers() if max_workers is None else int(max_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="repro-shard"
        )
        self._closed = False

    def _execute(self, tasks) -> list:
        submit_t = time.monotonic()

        def timed(fn, args, kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            return result, start, time.monotonic()

        futures = [
            self._pool.submit(timed, fn, args, kwargs)
            for fn, args, kwargs in tasks
        ]
        results = []
        stats = []
        # .result() re-raises the task's original exception object with
        # its original traceback chained — nothing to wrap.
        for fut in futures:
            result, start, end = fut.result()
            results.append(result)
            stats.append(
                {"queue_wait_s": max(0.0, start - submit_t), "run_s": end - start}
            )
        self.last_stats = stats
        return results

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=False, cancel_futures=True)


#: wall-time histogram edges for parallel.shard_seconds (log-ish, seconds)
_SHARD_SECONDS_EDGES = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0
)


def emit_parallel_telemetry(profiler, phase: str, backend: ExecutionBackend) -> None:
    """Fold one parallel dispatch's stats into the telemetry stream.

    Emits the ``parallel.*`` gauges/counters plus a ``parallel.round``
    event carrying per-shard wall time and queue wait — the stream the
    monitor's ``shard-straggler`` rule watches. Called from the
    coordinating thread only (never from inside shard tasks), so the
    hub's single-writer discipline holds.
    """
    stats = backend.last_stats
    if profiler is None or not getattr(profiler, "enabled", True) or not stats:
        return
    shard_s = [s["run_s"] for s in stats]
    queue_s = [s["queue_wait_s"] for s in stats]
    profiler.gauge("parallel.pool_size", backend.pool_size)
    profiler.count("parallel.dispatches")
    profiler.count("parallel.shards", len(stats))
    profiler.register_histogram("parallel.shard_seconds", _SHARD_SECONDS_EDGES)
    profiler.observe_many("parallel.shard_seconds", shard_s)
    ordered = sorted(shard_s)
    mid = len(ordered) // 2
    median = (
        ordered[mid]
        if len(ordered) % 2
        else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    profiler.event(
        "parallel.round",
        {
            "phase": phase,
            "backend": backend.name,
            "pool_size": backend.pool_size,
            "shards": len(stats),
            "shard_s": shard_s,
            "queue_wait_s": queue_s,
            "max_shard_s": max(shard_s),
            "median_shard_s": median,
        },
    )


def backend_summary(backend: ExecutionBackend | None) -> dict | None:
    """Plain-JSON snapshot of a backend for crash context / postmortems.

    Folds ``last_stats`` down to totals so the block stays one line in a
    dump header no matter how many shards the last dispatch had.
    """
    if backend is None:
        return None
    stats = backend.last_stats
    last = None
    if stats:
        run_s = [s["run_s"] for s in stats]
        last = {
            "tasks": len(stats),
            "run_s_total": float(sum(run_s)),
            "queue_wait_s_total": float(
                sum(s["queue_wait_s"] for s in stats)
            ),
            "max_run_s": float(max(run_s)),
        }
    return {
        "backend": backend.name,
        "pool_size": backend.pool_size,
        "last_dispatch": last,
    }


def make_backend(
    backend: str | ExecutionBackend = "serial",
    max_workers: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through unchanged)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "thread":
        return ThreadBackend(max_workers)
    raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
