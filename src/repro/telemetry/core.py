"""Telemetry hub: hierarchical spans, metrics registry, pluggable sinks.

The :class:`Telemetry` object is the observability backbone of the whole
simulator — always on, near-zero overhead, shared process-wide (see
:func:`get_telemetry` / :func:`set_telemetry`). It subsumes the old flat
profiler and adds three layers on top of its phase-timing table:

* **Hierarchical spans** — :meth:`Telemetry.span` opens a named span
  (run → round → phase → per-server slice) with free-form attributes and
  monotonic timing; closing a span emits one ``span`` event to every
  sink and folds its duration into the phase-timing table, so the old
  ``snapshot()`` / ``profile_delta`` contract keeps working unchanged.
  :meth:`Telemetry.phase` is the back-compat alias the trainer and
  mechanism have always used.
* **Metrics registry** — :meth:`count` (monotonic counters),
  :meth:`gauge` (last-value, emits a ``metric`` event) and
  :meth:`observe` / :meth:`observe_many` (fixed-bucket histograms, pure
  aggregation, no per-observation events) for mechanism signals:
  detection margins, reward Gini, fleet-group sizes, gradient norms.
* **Events** — :meth:`event` emits an arbitrary typed payload (per-round
  mechanism records, checkpoints) with a monotonically
  increasing ``seq`` and the trace schema version ``v``.

Emission is *deferred*: hot paths append compact records (span tuples,
plain event dicts, or :meth:`Telemetry.defer` thunks with reserved
``seq`` ranges) to one ordered queue, and each sink's ``emit`` receives
the materialized dicts as one list at the next flush boundary —
:meth:`Telemetry.events`, :meth:`Telemetry.metrics_snapshot`,
:meth:`Telemetry.close`, :meth:`Telemetry.flush`, or a bounded queue
cap. Sequence numbers are assigned at record time, so the materialized
stream reads exactly as if every event had been emitted inline; only
the dict-building and sink forwarding move off the round loop's
critical path.

Determinism: the clock is injectable. With the default
``time.perf_counter`` span durations are wall-clock; with a
:class:`TickClock` every clock read returns a deterministic logical
time, so a fully seeded run writes a byte-identical JSONL trace on every
repeat — traces double as regression fixtures (see
``tests/telemetry/test_trace_determinism.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from .sinks import MemorySink

__all__ = [
    "SCHEMA_VERSION",
    "TickClock",
    "Histogram",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "profile_delta",
    "format_profile",
]

#: version stamped (as ``"v"``) on every emitted trace event
SCHEMA_VERSION = 1

#: default histogram bucket edges (log-ish grid around zero) used when a
#: metric is observed before an explicit register_histogram call
DEFAULT_BUCKET_EDGES = (
    -8.0, -4.0, -2.0, -1.0, -0.5, -0.2, -0.1, 0.0,
    0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0,
)


class TickClock:
    """Deterministic logical clock: each read advances by ``step``.

    Installed via ``Telemetry(clock=TickClock())`` it makes span
    durations a pure function of control flow (number of intervening
    clock reads), so seeded runs produce byte-identical traces.
    """

    def __init__(self, start: float = 0.0, step: float = 0.001):
        if step <= 0:
            raise ValueError("step must be positive")
        self._t = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        t = self._t
        self._t += self._step
        return t


class Histogram:
    """Fixed-bucket histogram: counts per ``(-inf, e0], (e0, e1], ...``.

    Batched observations are bucketed lazily: the hot path
    (:meth:`observe_many` from a per-round mechanism loop) folds the
    batch into the running sum and appends it to a list, and the
    searchsorted/bincount pass runs on the next :meth:`snapshot` (or
    when the buffer exceeds a bounded chunk count). The sum adds values
    one at a time in observation order, so ``observe_many(v)`` leaves
    the same ``sum`` as one ``observe`` per value.
    """

    _MAX_PENDING = 256

    def __init__(self, edges: Iterable[float]):
        self.edges = np.asarray(sorted(edges), dtype=np.float64)
        if self.edges.size == 0:
            raise ValueError("need at least one bucket edge")
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)
        self.total = 0
        self.sum = 0.0
        self._pending: list[np.ndarray] = []

    def observe(self, value: float) -> None:
        self.counts[int(np.searchsorted(self.edges, value))] += 1
        self.total += 1
        self.sum += float(value)

    def observe_many(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        # add one value at a time, as observe() does (np.sum is pairwise)
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        self._pending.append(values)
        if len(self._pending) > self._MAX_PENDING:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        values = np.concatenate(self._pending)
        self._pending.clear()
        idx = np.searchsorted(self.edges, values)
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.total += int(values.size)

    def snapshot(self) -> dict:
        self._flush()
        return {
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "total": int(self.total),
            "sum": float(self.sum),
        }


class _SpanHandle:
    """Context manager for one span occurrence.

    Handles are pooled per hub (:attr:`Telemetry._span_pool`) and the
    close path appends one compact tuple to the hub's pending queue
    instead of building an event dict — spans wrap phases that can be
    only a few hundred microseconds long, so every allocation here
    shows up in the benchmarks' overhead number. The dict is
    materialized later by :meth:`Telemetry._flush_pending`, with the
    ``seq`` reserved here so stream order is exactly emission order.
    """

    __slots__ = ("_tele", "_name", "_kind", "_attrs", "_t0")

    def __init__(self, tele: "Telemetry", name: str, kind: str, attrs: dict):
        self._tele = tele
        self._name = name
        self._kind = kind
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        self._t0 = self._tele._clock()
        self._tele._stack.append(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tele = self._tele
        dur = tele._clock() - self._t0
        stack = tele._stack
        depth = len(stack)
        stack.pop()
        slot = tele._timings.get(self._name)
        if slot is None:
            tele._timings[self._name] = [dur, 1]
        else:
            slot[0] += dur
            slot[1] += 1
        pending = tele._pending
        pending.append((_SPAN, self._name, self._kind, depth, dur, tele._seq,
                        self._attrs))
        tele._seq += 1
        tele._span_pool.append(self)
        if len(pending) >= _PENDING_CAP:
            tele._flush_pending()


class _NullSpan:
    """Shared no-op context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()

#: shared attrs dict for attribute-less phases — read-only by contract
_NO_ATTRS: dict = {}

#: pending-queue record tags (span tuple / deferred thunk)
_SPAN = 0
_THUNK = 1

#: pending records buffered before a forced flush to the sinks
_PENDING_CAP = 4096


class Telemetry:
    """Span tracer + metrics registry + event bus behind one object.

    Implements the legacy ``Profiler`` contract exactly (``phase``,
    ``add_time``, ``count``, ``snapshot``, ``reset``) so every existing
    consumer keeps working, and layers spans/gauges/histograms/events on
    top. ``enabled=False`` turns every entry point into a no-op, which
    the benchmarks use to measure the always-on overhead.
    """

    def __init__(
        self,
        sinks: list | None = None,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ):
        self.sinks = list(sinks) if sinks is not None else [MemorySink()]
        self._clock = clock if clock is not None else time.perf_counter
        self.enabled = enabled
        self._stack: list[str] = []
        self._seq = 0
        self._span_pool: list[_SpanHandle] = []
        # Deferred-emission queue: hot paths append compact records
        # (span tuples, thunks with reserved seq ranges, plain event
        # dicts) and the sinks see materialized dicts at the next flush
        # boundary — events()/close()/metrics_snapshot() or the cap.
        self._pending: list = []
        # phase name -> [total seconds, calls] (legacy profiler table)
        self._timings: dict[str, list[float]] = {}
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- events ----------------------------------------------------------------

    @property
    def seq(self) -> int:
        """The sequence number the *next* emitted event will carry."""
        return self._seq

    def _emit(self, event: dict) -> None:
        event["v"] = SCHEMA_VERSION
        event["seq"] = self._seq
        self._seq += 1
        self._pending.append(event)
        if len(self._pending) >= _PENDING_CAP:
            self._flush_pending()

    def defer(self, fn, args: tuple, n_events: int) -> None:
        """Defer building ``n_events`` events until the next flush.

        ``fn(self, *args)`` runs at flush time and must return exactly
        ``n_events`` event dicts (without ``v``/``seq`` — their sequence
        numbers are reserved *now*, so the trace reads as if the events
        were emitted inline). This keeps expensive per-round summaries
        (sorting reward vectors, entropy) off the hot path while
        preserving stream order and determinism; aggregate side effects
        inside ``fn`` (gauges, histograms) also run in emission order.
        """
        if not self.enabled:
            return
        seq0 = self._seq
        self._seq += n_events
        self._pending.append((_THUNK, fn, args, seq0, n_events))
        if len(self._pending) >= _PENDING_CAP:
            self._flush_pending()

    def _flush_pending(self) -> None:
        """Materialize queued records and hand them to every sink.

        The queue becomes one list of event dicts in ``seq`` order, and
        each sink's ``emit`` receives that whole list once, so a sink
        pays its per-call cost once per flush, not once per event.
        """
        if not self._pending:
            return
        # swap the queue out first: thunks may defer/observe re-entrantly
        queue, self._pending = self._pending, []
        events: list[dict] = []
        append = events.append
        for item in queue:
            if type(item) is dict:
                append(item)
                continue
            if item[0] == _SPAN:
                _, name, kind, depth, dur, seq, attrs = item
                event = {
                    "type": "span",
                    "name": name,
                    "kind": kind,
                    "depth": depth,
                    "dur_s": dur,
                    "v": SCHEMA_VERSION,
                    "seq": seq,
                }
                if attrs:
                    event["attrs"] = attrs
                append(event)
                continue
            _, fn, args, seq0, n_events = item
            built = fn(self, *args)
            if len(built) != n_events:
                raise RuntimeError(
                    f"deferred emitter returned {len(built)} events, "
                    f"reserved {n_events}"
                )
            for i, event in enumerate(built, seq0):
                event["v"] = SCHEMA_VERSION
                event["seq"] = i
            events.extend(built)
        if events:
            for sink in self.sinks:
                sink.emit(events)

    def flush(self) -> None:
        """Materialize all deferred events into the sinks now.

        Reading APIs (:meth:`events`, :meth:`metrics_snapshot`,
        :meth:`close`) flush implicitly; call this directly to bound
        deferred work at a known point, e.g. between benchmark windows.

        Sinks exposing their own ``flush`` (e.g. :class:`JsonlSink`
        with ``fsync_on_flush``) are drained too, so a flush boundary
        is also a durability boundary for file-backed traces.
        """
        self._flush_pending()
        for sink in self.sinks:
            sink_flush = getattr(sink, "flush", None)
            if sink_flush is not None:
                sink_flush()

    def event(self, etype: str, data: dict) -> None:
        """Emit one arbitrary typed event (payload under ``data``)."""
        if not self.enabled:
            return
        self._emit({"type": etype, "data": data})

    def events(self) -> list[dict]:
        """Events retained by the first in-memory sink (else empty)."""
        self._flush_pending()
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return list(sink.events)
        return []

    def close(self) -> None:
        """Flush/close every sink (JSONL files, console summaries)."""
        self._flush_pending()
        for sink in self.sinks:
            sink.close()

    # -- spans -----------------------------------------------------------------

    def _span(self, name: str, kind: str, attrs: dict) -> _SpanHandle:
        pool = self._span_pool
        if pool:
            handle = pool.pop()
            handle._name = name
            handle._kind = kind
            handle._attrs = attrs
            return handle
        return _SpanHandle(self, name, kind, attrs)

    def span(self, name: str, kind: str = "span", **attrs):
        """Open a named hierarchical span (context manager).

        Nesting is tracked by an explicit stack: the emitted ``span``
        event records its ``depth`` at close time. Duration also folds
        into the flat phase-timing table, so spans and legacy phases
        share one accounting. Handles are single-use (and recycled
        internally): call :meth:`span` again rather than re-entering a
        kept reference.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, kind, attrs)

    def phase(self, name: str):
        """Time one phase (legacy profiler API; a span of kind 'phase')."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, "phase", _NO_ATTRS)

    def current_depth(self) -> int:
        """How many spans are currently open on this hub."""
        return len(self._stack)

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold an externally measured duration into a phase."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if not self.enabled:
            return
        slot = self._timings.get(name)
        if slot is None:
            self._timings[name] = [seconds, calls]
        else:
            slot[0] += seconds
            slot[1] += calls

    # -- metrics ---------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Bump a named counter (workers scored, bytes moved, ...)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record a last-value gauge and emit a ``metric`` event."""
        if not self.enabled:
            return
        value = float(value)
        self._gauges[name] = value
        event = {"type": "metric", "kind": "gauge", "name": name, "value": value}
        if attrs:
            event["attrs"] = attrs
        self._emit(event)

    def register_histogram(self, name: str, edges: Iterable[float]) -> None:
        """Pre-register a histogram's fixed bucket edges (idempotent)."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(edges)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a fixed-bucket histogram (no event)."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(DEFAULT_BUCKET_EDGES)
        hist.observe(value)

    def observe_many(self, name: str, values) -> None:
        """Vectorized :meth:`observe` for a whole batch of values."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(DEFAULT_BUCKET_EDGES)
        hist.observe_many(values)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Legacy profiler snapshot: ``{"timings": ..., "counters": ...}``.

        The shape is frozen — downstream JSON (``TrainingHistory.profile``,
        runner ``_meta.profile``) depends on it; gauges
        and histograms live in :meth:`metrics_snapshot`.
        """
        return {
            "timings": {
                name: {"seconds": total, "calls": int(calls)}
                for name, (total, calls) in self._timings.items()
            },
            "counters": dict(self._counters),
        }

    def metrics_snapshot(self) -> dict:
        """Gauges (last values) and histogram bucket tables."""
        self._flush_pending()
        return {
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.snapshot() for name, hist in self._histograms.items()
            },
        }

    def reset(self) -> None:
        """Clear aggregated state (timings, counters, gauges, histograms).

        Does not touch sinks or the event sequence — a reset mid-trace
        must not make two different events share a ``seq``. Pending
        deferred events are flushed first so their aggregate side
        effects land in the pre-reset state they were recorded under.
        """
        self._flush_pending()
        self._timings.clear()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def profile_delta(before: dict, after: dict) -> dict:
    """What happened between two snapshots (phases new to ``after`` kept)."""
    timings = {}
    for name, stat in after["timings"].items():
        prev = before["timings"].get(name, {"seconds": 0.0, "calls": 0})
        seconds = stat["seconds"] - prev["seconds"]
        calls = stat["calls"] - prev["calls"]
        if calls > 0 or seconds > 0:
            timings[name] = {"seconds": seconds, "calls": calls}
    counters = {}
    for name, value in after["counters"].items():
        diff = value - before["counters"].get(name, 0)
        if diff:
            counters[name] = diff
    return {"timings": timings, "counters": counters}


def format_profile(profile: dict) -> list[str]:
    """Human-readable rows for a snapshot/delta, longest phase first."""
    rows = []
    timings = profile.get("timings", {})
    total = sum(s["seconds"] for s in timings.values())
    for name, stat in sorted(
        timings.items(), key=lambda kv: -kv[1]["seconds"]
    ):
        share = 100.0 * stat["seconds"] / total if total > 0 else 0.0
        rows.append(
            f"{name:>16}  {stat['seconds'] * 1e3:10.2f} ms"
            f"  {stat['calls']:>7} calls  {share:5.1f}%"
        )
    for name, value in sorted(profile.get("counters", {}).items()):
        rows.append(f"{name:>16}  {value:g}")
    return rows


_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide hub shared by trainer, mechanism, and engines."""
    return _TELEMETRY


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the process-wide hub (returns the previous one)."""
    global _TELEMETRY
    previous = _TELEMETRY
    _TELEMETRY = telemetry
    return previous
