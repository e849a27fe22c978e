"""Telemetry sinks: in-memory ring, JSONL event stream, console summary.

:func:`read_trace` is the one path from a JSONL file back to events.
Blank lines are skipped; a last line with no trailing newline that does
not decode is a *cut tail* (a writer killed mid-line) and is dropped
with a :class:`TraceTruncated` warning; any other line that does not
decode to a JSON object raises :class:`TraceError` naming ``path:line``.

A sink has one method the hub calls, ``emit(events)``: at each flush it
receives that flush's events as one list in ``seq`` order, each a plain
dict already stamped with the schema version (``v``) and the sequence
number (``seq``). Every event reaches every sink exactly once. Sinks
never mutate events or keep the list itself.

``encode_event`` defines the canonical wire encoding: sorted keys, no
whitespace, NaN rejected, numpy scalars coerced; ``JsonlSink`` encodes
with the same module-level encoder. Canonical bytes are what makes
seeded traces byte-identical across runs — and therefore usable as
regression fixtures, not just logs.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from collections import deque
from pathlib import Path

__all__ = [
    "encode_event",
    "decode_event",
    "read_trace",
    "decode_lines",
    "TraceError",
    "TraceTruncated",
    "FIELD_ERRORS",
    "malformed",
    "MemorySink",
    "JsonlSink",
    "ConsoleSink",
    "MetricsTextSink",
]


def _json_default(obj):
    """Coerce numpy scalars/arrays and sets into JSON-native values."""
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


#: the canonical encoder (one instance: ``json.dumps`` with options
#: builds a fresh encoder on every call)
_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    allow_nan=False,
    default=_json_default,
)


def encode_event(event: dict) -> str:
    """One canonical JSONL line (no trailing newline) for an event."""
    return _ENCODER.encode(event)


def decode_event(line: str) -> dict:
    """Parse one JSONL trace line back into an event dict."""
    return json.loads(line)


class TraceError(Exception):
    """A trace that cannot be read as well-formed events.

    Raised for a corrupt line (the message names ``path:line``) and by
    the trace folds for an event with a missing or ill-typed field
    (``event`` is that event, or its ``data`` payload, so a front-end
    can name the file and ``seq`` it came from).
    """

    def __init__(self, message: str, event=None):
        super().__init__(message)
        self.event = event


class TraceTruncated(UserWarning):
    """The last line of a trace was cut mid-record and has been dropped."""


#: what reading a field of a decoded JSON value raises when the field is
#: missing or of the wrong type; folds turn these into :func:`malformed`
FIELD_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def malformed(event, exc: BaseException) -> TraceError:
    """The :class:`TraceError` for a fold that choked on ``event``."""
    return TraceError(f"malformed event ({type(exc).__name__}: {exc})", event)


def read_trace(path) -> list[dict]:
    """All events of a JSONL trace file, in file order."""
    # errors="replace": a byte that is not UTF-8 fails its own line's
    # decode (named path:line) instead of aborting the whole read
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return decode_lines(fh, path)


def decode_lines(lines, path, first_line: int = 1) -> list[dict]:
    """Decode JSONL ``lines`` (newlines kept) under :func:`read_trace`'s rules.

    ``first_line`` numbers the first line, for a caller that decodes a
    growing file chunk by chunk (``trace scan --watch``).
    """
    loads = json.loads
    events = []
    blank = 0
    for line in lines:
        try:
            event = loads(line)
        except (ValueError, RecursionError) as exc:
            if line.isspace():
                blank += 1
                continue
            where = f"{path}:{first_line + len(events) + blank}"
            if not line.endswith("\n"):
                warnings.warn(
                    f"{where}: skipped 1 undecodable line at the end of "
                    f"the trace (not valid JSONL: a cut tail)",
                    TraceTruncated, stacklevel=2,
                )
                break
            raise TraceError(
                f"{where}: not valid JSONL ({getattr(exc, 'msg', exc)}); "
                f"the trace is corrupt"
            ) from None
        if type(event) is not dict:
            raise TraceError(
                f"{path}:{first_line + len(events) + blank}: not a JSON object"
            )
        events.append(event)
    return events


class MemorySink:
    """Default sink: a bounded in-memory ring of event dicts.

    The ``maxlen`` cap keeps week-long runs from growing without bound;
    eviction drops the *oldest* events, so recent history (what a
    summary or a crash post-mortem wants) is always retained.
    """

    def __init__(self, maxlen: int | None = 65536):
        self.events: deque = deque(maxlen=maxlen)

    def emit(self, events: list[dict]) -> None:
        self.events.extend(events)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams every event as one canonical JSON line to a file.

    The file is opened eagerly (truncating) so a crashed run still
    leaves a readable prefix. ``close()`` is idempotent; the sink also
    works as a context manager.

    With ``fsync_on_flush=True`` every :meth:`flush` pushes buffered
    lines through the OS to the disk (``fsync``), so the trace written
    up to the last flush boundary survives a SIGKILL or power loss —
    the crash scenarios the service snapshots are built for. Off by
    default: durability costs a syscall per flush, and most traces only
    need to survive a clean exit.
    """

    def __init__(self, path, *, fsync_on_flush: bool = False):
        self.path = Path(path)
        self.fsync_on_flush = bool(fsync_on_flush)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, events: list[dict]) -> None:
        if self._fh is None:
            raise RuntimeError(f"JsonlSink({self.path}) is closed")
        if events:
            self._fh.write("\n".join(map(_ENCODER.encode, events)) + "\n")

    def flush(self) -> None:
        """Drain userspace buffers (and hit the disk when configured)."""
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync_on_flush:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _metric_name(name: str, namespace: str) -> str:
    """Sanitize to the exposition-format name charset ``[a-zA-Z0-9_:]``."""
    safe = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"{namespace}_{safe}" if namespace else safe


def _label_value(value) -> str:
    """Escape a label value per the exposition format (\\\\, \\", \\n)."""
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class MetricsTextSink:
    """Prometheus-textfile-style metrics endpoint for long-running services.

    Tracks last-value gauges from ``metric`` events (per distinct label
    set) and counts every event type; each hub :meth:`flush` atomically
    rewrites ``path`` in the text exposition format, so a node-exporter
    textfile collector (or a ``cat``) scrapes a consistent view while
    ``repro.service`` keeps running. Bind the hub (``bind(hub)``) to
    also export its internal counters at flush time.

    The sink never touches event bytes or ordering — attaching it to a
    seeded run changes nothing about the JSONL trace.
    """

    def __init__(self, path, *, namespace: str = "repro", hub=None):
        self.path = Path(path)
        self.namespace = namespace
        self._hub = hub
        # gauge name -> {sorted-label-tuple: value}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._event_counts: dict[str, int] = {}
        self._closed = False

    def bind(self, hub) -> None:
        """Export ``hub``'s internal counters in every future flush."""
        self._hub = hub

    def emit(self, events: list[dict]) -> None:
        counts = self._event_counts
        for event in events:
            kind = str(event.get("type"))
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "metric" and event.get("kind") == "gauge":
                labels = tuple(sorted((event.get("attrs") or {}).items()))
                series = self._gauges.setdefault(event["name"], {})
                series[labels] = float(event["value"])

    def render(self) -> str:
        """The full exposition-format payload for the current state."""
        lines: list[str] = []

        def sample(name: str, labels: tuple, value) -> str:
            if labels:
                body = ",".join(
                    f'{_metric_name(k, "")}="{_label_value(v)}"'
                    for k, v in labels
                )
                return f"{name}{{{body}}} {value}"
            return f"{name} {value}"

        for raw in sorted(self._gauges):
            name = _metric_name(raw, self.namespace)
            lines.append(f"# TYPE {name} gauge")
            series = self._gauges[raw]
            for labels in sorted(series):
                lines.append(sample(name, labels, series[labels]))
        counters = dict(self._hub.snapshot()["counters"]) if self._hub else {}
        for raw in sorted(counters):
            name = _metric_name(raw, self.namespace) + "_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(sample(name, (), counters[raw]))
        events_name = _metric_name("events", self.namespace) + "_total"
        lines.append(f"# TYPE {events_name} counter")
        for kind in sorted(self._event_counts):
            lines.append(
                sample(events_name, (("type", kind),), self._event_counts[kind])
            )
        return "\n".join(lines) + "\n"

    def flush(self) -> None:
        """Atomically rewrite the textfile (write-new + rename)."""
        if self._closed:
            return
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(self.render(), encoding="utf-8")
        os.replace(tmp, self.path)

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._closed = True


class ConsoleSink(MemorySink):
    """Buffers events and prints a rendered summary on ``close()``."""

    def __init__(self, stream=None, maxlen: int | None = 65536):
        super().__init__(maxlen=maxlen)
        self.stream = stream if stream is not None else sys.stdout

    def close(self) -> None:
        # Imported here: summary renders *from* events, sinks must not
        # depend on it at import time (summary imports this module).
        from .summary import render_summary

        for row in render_summary(list(self.events)):
            print(row, file=self.stream)
