"""Telemetry sinks: in-memory ring and JSONL event stream.

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

