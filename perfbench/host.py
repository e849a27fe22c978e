"""Host fingerprint and the host-noise diagnostic.

Results are only comparable between runs whose fingerprints match. The
noise diagnostic times a fixed reference loop before and after a
workload so a reader can tell a host slowdown from a regression; its
figures are printed beside the metrics, never folded into them.
"""

from __future__ import annotations

import os
import platform
import sys
import time

import numpy as np

__all__ = ["fingerprint", "reference_slices"]

#: iterations of the reference loop per slice (0.15-0.5 s on a 2-core Xeon
#: VM, depending on how busy its host is)
REFERENCE_ITERS = 90000
#: slices before and after the workload
REFERENCE_SLICES = 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"vendor": "unknown", "version": "unknown"}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name", "unknown"),
                "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    try:
        from repro.parallel.blas import blas_thread_count

        info["threads"] = blas_thread_count()
    except ImportError:
        info["threads"] = None
    info["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def fingerprint(seed: int) -> dict:
    """What a result must share with another before they are compared."""
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "seed": seed,
    }


def _reference_loop(a: np.ndarray, iters: int) -> float:
    acc = 0.0
    for i in range(iters):
        acc += float((a @ a[i % 8]).sum()) + (i * i) % 7
    return acc


def reference_slices(n: int = REFERENCE_SLICES, iters: int = REFERENCE_ITERS) -> list[float]:
    """Wall milliseconds of ``n`` identical slices of fixed work."""
    a = np.random.default_rng(0).normal(size=(64, 64))
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _reference_loop(a, iters)
        out.append((time.perf_counter() - t0) * 1e3)
    return out
