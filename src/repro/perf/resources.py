"""Process resource probes: RSS, GC activity, tracemalloc, BLAS threads.

:class:`ResourceProbe` samples cheap process-level counters at round
boundaries (one ``/proc/self/statm`` read plus a few attribute loads —
single-digit microseconds, far under the 1% overhead budget) and keeps
the samples on a **side stream**: nothing a probe measures ever enters
the telemetry hub, so seeded hub traces stay byte-identical with probes
attached — the same isolation contract the health monitor honours.
Consumers of the side stream:

* :meth:`ResourceProbe.summary` — the compact block the trainer attaches
  to ``TrainingHistory.resources`` and the runner embeds as
  ``_meta.resources`` (RSS start/peak/growth, GC pauses, sample count);
* an ``on_sample`` callback — the trainer routes samples into the health
  monitor as ``resource.sample`` events (rule catalogue: ``rss-growth``,
  ``gc-pause``), again without touching the hub;
* an optional ``jsonl_path`` — samples stream to their own JSONL file,
  which ``python -m repro.trace perf --resources`` merges into Perfetto
  counter lanes.

GC pauses are *measured*, not estimated from counts: the probe registers
a ``gc.callbacks`` pair timing every collection between its own start
and stop, so ``gc_pause_s_total`` is the real stop-the-world seconds the
collector cost this process. Always detach probes (:meth:`close` or use
as a context manager) so the callback list does not grow.
"""

from __future__ import annotations

import gc
import json
import os
import time

__all__ = ["ResourceProbe", "resource_snapshot", "rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Current resident set size in bytes (best effort, 0 if unknown).

    Linux: one read of ``/proc/self/statm`` (microseconds). Elsewhere:
    ``ru_maxrss`` (the *peak*, the closest portable signal).
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover
        return 0


def resource_snapshot() -> dict:
    """One-shot process snapshot (no probe state needed).

    Used by the flight recorder's post-mortem header: RSS, GC counters
    and totals at dump time — the process state that produced the crash.
    """
    counts = gc.get_count()
    stats = gc.get_stats()
    return {
        "rss_bytes": rss_bytes(),
        "gc_counts": list(counts),
        "gc_collections": sum(s.get("collections", 0) for s in stats),
        "gc_uncollectable": sum(s.get("uncollectable", 0) for s in stats),
    }


class ResourceProbe:
    """Round-boundary resource sampler with measured GC pauses.

    Parameters
    ----------
    sample_every:
        Sample on every ``sample_every``-th call to :meth:`sample`
        (default 1 = every round boundary).
    tracemalloc_peak:
        Include the tracemalloc peak in samples — only when tracemalloc
        is already tracing (the probe never starts it: tracing costs far
        more than 1%, opting in is the caller's decision).
    on_sample:
        Called with each sample dict as it is taken (monitor wiring).
    jsonl_path:
        Stream each sample as a ``resource.sample`` JSONL line (side
        file, never the hub trace).
    """

    def __init__(
        self,
        sample_every: int = 1,
        tracemalloc_peak: bool = False,
        on_sample=None,
        jsonl_path=None,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = int(sample_every)
        self.tracemalloc_peak = tracemalloc_peak
        self.on_sample = on_sample
        self.samples: list[dict] = []
        self._calls = 0
        self._gc_pause_total = 0.0
        self._gc_pauses = 0
        self._gc_pause_max_window = 0.0  # max pause since the last sample
        self._gc_t0 = None
        self._closed = False
        self._fh = open(jsonl_path, "w", encoding="utf-8") if jsonl_path else None
        # keep /proc/self/statm open for the probe's lifetime: pread on a
        # held fd skips the open/close syscall pair, the bulk of a
        # sample's cost on the ~1% budget
        try:
            self._statm_fd = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:  # pragma: no cover - non-Linux
            self._statm_fd = None
        # one-time: the ctypes/threadpoolctl probe is too slow per round
        from ..parallel.blas import blas_thread_count

        self.blas_threads = blas_thread_count()
        gc.callbacks.append(self._gc_callback)

    # -- gc pause measurement ----------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif phase == "stop" and self._gc_t0 is not None:
            pause = time.perf_counter() - self._gc_t0
            self._gc_t0 = None
            self._gc_pause_total += pause
            self._gc_pauses += 1
            if pause > self._gc_pause_max_window:
                self._gc_pause_max_window = pause

    # -- sampling ----------------------------------------------------------

    def sample(self, round_idx: int | None = None) -> dict | None:
        """Take one sample (subject to ``sample_every``); returns it."""
        if self._closed:
            raise RuntimeError("probe is closed")
        self._calls += 1
        if (self._calls - 1) % self.sample_every:
            return None
        counts = gc.get_count()
        sample = {
            "round": round_idx,
            "rss_bytes": self._rss(),
            "gc_counts": list(counts),
            "gc_collections": self._gc_pauses,
            "gc_pause_s_total": self._gc_pause_total,
            "gc_pause_max_s": self._gc_pause_max_window,
            "blas_threads": self.blas_threads,
        }
        self._gc_pause_max_window = 0.0
        if self.tracemalloc_peak:
            import tracemalloc

            if tracemalloc.is_tracing():
                sample["tracemalloc_peak_bytes"] = (
                    tracemalloc.get_traced_memory()[1]
                )
        self.samples.append(sample)
        if self._fh is not None:
            self._fh.write(json.dumps(
                {"type": "resource.sample", "data": sample},
                sort_keys=True, separators=(",", ":"),
            ) + "\n")
        if self.on_sample is not None:
            self.on_sample(sample)
        return sample

    def _rss(self) -> int:
        fd = self._statm_fd
        if fd is not None:
            try:
                return int(os.pread(fd, 64, 0).split()[1]) * _PAGE_SIZE
            except (OSError, ValueError, IndexError):  # pragma: no cover
                pass
        return rss_bytes()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Compact digest: RSS envelope, GC totals, sample count."""
        rss = [s["rss_bytes"] for s in self.samples]
        return {
            "samples": len(self.samples),
            "rss_start_bytes": rss[0] if rss else None,
            "rss_last_bytes": rss[-1] if rss else None,
            "rss_peak_bytes": max(rss) if rss else None,
            "rss_growth_bytes": (rss[-1] - rss[0]) if rss else None,
            "gc_collections": self._gc_pauses,
            "gc_pause_s_total": self._gc_pause_total,
            "blas_threads": self.blas_threads,
        }

    def events(self) -> list[dict]:
        """Samples as ``resource.sample`` event dicts (exporter merges)."""
        return [{"type": "resource.sample", "data": dict(s)}
                for s in self.samples]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach the GC callback and close the side file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            gc.callbacks.remove(self._gc_callback)
        except ValueError:  # pragma: no cover - already detached
            pass
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._statm_fd is not None:
            os.close(self._statm_fd)
            self._statm_fd = None

    def __enter__(self) -> "ResourceProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
