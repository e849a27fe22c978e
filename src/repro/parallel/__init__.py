"""Parallel execution backend: multi-core fleet GEMMs.

FIFL's local training is embarrassingly parallel across workers: fleet
local SGD stacks N private models into one batched kernel, and each
fleet shard's GEMM chain is independent of every other shard's. This
package spreads those shards across cores behind one switch::

    FederatedTrainer(..., backend="thread", max_workers=4)
    FedExpConfig(backend="thread")

* :mod:`repro.parallel.backend` — ``serial`` (the differential oracle)
  and ``thread`` (persistent pool; the big NumPy kernels release the
  GIL) behind :func:`make_backend`, both with ordered-reduce semantics
  so results are byte-identical to serial regardless of shard
  completion order.
* :mod:`repro.parallel.blas` — :func:`blas_limits`, the BLAS thread-count
  guard against ``pool x blas`` oversubscription.
* :mod:`repro.parallel.heap` — :func:`retain_heap`, the glibc heap policy
  that keeps a round's large temporaries resident between rounds.

The mechanism's round kernels (detection, distances) stay serial: sharding
them over the pool measured slower than the inline loop at the cohort
sizes this repo runs (see DESIGN.md, "One pool, one hot path").

Telemetry: every parallel dispatch emits ``parallel.*`` metrics and one
``parallel.round`` event (pool size, shard count, per-shard wall time,
queue wait); the monitor's ``shard-straggler`` rule watches those for
shards stalling far beyond their siblings.
"""

from .backend import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    auto_workers,
    backend_summary,
    emit_parallel_telemetry,
    make_backend,
)
from .blas import blas_limits, blas_thread_count
from .heap import retain_heap

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "auto_workers",
    "backend_summary",
    "emit_parallel_telemetry",
    "make_backend",
    "blas_limits",
    "blas_thread_count",
    "retain_heap",
]
