"""BLAS thread-count guard: stop library-level oversubscription.

NumPy's BLAS (OpenBLAS here) keeps its own thread pool. When the
execution backend shards a GEMM-heavy phase across Python threads,
every shard's BLAS call would otherwise fan out over *all* cores —
``pool_size x blas_threads`` runnable threads on ``cores`` cores, which
thrashes caches and routinely makes "parallel" slower than serial.
:func:`blas_limits` pins the BLAS pool for the duration of a block::

    with blas_limits(1):          # one BLAS thread per worker
        backend.run(tasks)

Resolution order (best effort, degrading gracefully):

1. ``threadpoolctl`` when importable — controls every loaded pool
   (OpenBLAS, MKL, OpenMP) properly;
2. the OpenBLAS control symbols of NumPy's own bundled library, found
   via :mod:`ctypes` (covers the scipy-openblas wheels where
   ``threadpoolctl`` is absent).

Both paths restore the previous pool size on exit, and the context
manager is a silent no-op when nothing can be controlled — a guard, not
a dependency.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

__all__ = ["blas_limits", "blas_thread_count"]

#: (get, set) symbol-name pairs probed on candidate BLAS shared objects
_SYMBOL_PAIRS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)

_PROBED = False
_GETTER = None
_SETTER = None


def _probe_openblas() -> None:
    """Locate get/set thread-count symbols in the loaded BLAS (once)."""
    global _PROBED, _GETTER, _SETTER
    if _PROBED:
        return
    _PROBED = True
    candidates: list[str | None] = [None]  # the process's global symbols
    try:
        import numpy as np

        np_dir = os.path.dirname(np.__file__)
        for pattern in (
            os.path.join(np_dir, os.pardir, "numpy.libs", "*openblas*.so*"),
            os.path.join(np_dir, ".libs", "*openblas*.so*"),
            os.path.join(np_dir, ".dylibs", "*openblas*.dylib"),
        ):
            candidates.extend(sorted(glob.glob(pattern)))
    except Exception:  # pragma: no cover - numpy always importable here
        pass
    for cand in candidates:
        try:
            lib = ctypes.CDLL(cand)
        except OSError:
            continue
        for get_name, set_name in _SYMBOL_PAIRS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                _GETTER, _SETTER = getter, setter
                return


def blas_thread_count() -> int | None:
    """Current BLAS pool size, or ``None`` when it cannot be read."""
    try:
        import threadpoolctl

        for pool in threadpoolctl.threadpool_info():
            if pool.get("user_api") == "blas":
                return int(pool["num_threads"])
    except ImportError:
        pass
    _probe_openblas()
    if _GETTER is not None:
        return int(_GETTER())
    return None


@contextmanager
def blas_limits(limit: int | None = 1):
    """Pin BLAS/OMP pools to ``limit`` threads inside the block.

    ``limit=None`` is an explicit no-op (convenient for call sites that
    make the guard conditional). The previous pool size is restored on
    exit, including on exceptions.
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive (or None)")
    if limit is None:
        yield
        return

    # 1) threadpoolctl: the real thing, when available.
    try:
        import threadpoolctl
    except ImportError:
        threadpoolctl = None
    if threadpoolctl is not None:
        with threadpoolctl.threadpool_limits(limits=limit):
            yield
        return

    # 2) direct OpenBLAS control on NumPy's bundled library.
    _probe_openblas()
    if _SETTER is None:
        yield  # nothing controllable: a silent no-op
        return
    previous = int(_GETTER()) if _GETTER is not None else None
    _SETTER(int(limit))
    try:
        yield
    finally:
        if previous is not None and previous > 0:
            _SETTER(previous)

