"""Chrome-trace-event (Perfetto) export of telemetry traces.

Converts a materialized telemetry event stream into the JSON object
format the ``chrome://tracing`` and https://ui.perfetto.dev viewers
load: ``{"traceEvents": [...], "displayTimeUnit": "ms"}``. Three lane
groups come out of one trace:

* **pid 1 — "trainer"**: the reconstructed span hierarchy (run → round
  → phase → per-server slice) as nested complete (``"ph": "X"``)
  events on one thread lane. Span events carry durations but no
  timestamps (the byte-identical-trace contract forbids wall stamps),
  so the exporter lays spans out on a synthetic timeline: roots are
  placed end to end in close order and children packed from their
  parent's start — durations, nesting and ordering are exact; absolute
  positions are synthetic.
* **pid 2 — "parallel backend"**: one lane per backend slot. Every
  ``parallel.round`` dispatch turns into per-task *queue-wait* and
  *run* segments from the per-task stats the execution backend
  recorded (``queue_wait_s`` / ``run_s``). Tasks map to the nominal
  slot lane ``task_index % pool_size`` — task-order nominal, since the
  thread pool hands tasks to whichever thread is free.
* **pid 3 — "resources"**: ``resource.sample`` events (when present —
  they live on the probe's side stream, not in hub traces) become
  Perfetto counter (``"ph": "C"``) tracks: RSS, GC collections and
  pause time, tracemalloc peak.

:func:`validate_trace` checks the structural contract of the emitted
JSON (the fields chrome://tracing requires per phase type) and is run
on every export, so a malformed trace fails loudly at write time, not
in the viewer.
"""

from __future__ import annotations

import json
from pathlib import Path

from .aggregate import SpanNode, build_span_tree

__all__ = [
    "events_to_perfetto",
    "write_perfetto",
    "validate_trace",
]

#: timeline unit: trace-event ``ts``/``dur`` are microseconds
_US = 1e6

#: pid per lane group
_PID_TRAINER = 1
_PID_PARALLEL = 2
_PID_RESOURCES = 3


def _process_meta(pid: int, name: str) -> dict:
    return {"ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": name}}


def _thread_meta(pid: int, tid: int, name: str) -> dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def _span_events(roots: list[SpanNode], out: list[dict]) -> float:
    """Lay the span forest onto the synthetic timeline; returns its end."""
    cursor = 0.0

    def place(node: SpanNode, start_s: float) -> None:
        args = {"kind": node.kind, "seq": node.seq}
        args.update(node.attrs)
        out.append({
            "ph": "X",
            "pid": _PID_TRAINER,
            "tid": 1,
            "name": node.name,
            "cat": node.kind,
            "ts": start_s * _US,
            "dur": max(node.dur_s, 0.0) * _US,
            "args": args,
        })
        # children packed contiguously from the parent's start: their
        # relative durations and order are real, the gaps are not known
        child_t = start_s
        for child in node.children:
            place(child, child_t)
            child_t += child.dur_s

    for root in roots:
        place(root, cursor)
        cursor += root.dur_s
    return cursor


def _parallel_events(events: list[dict], out: list[dict]) -> set[int]:
    """Per-slot queue-wait/run segments for every parallel.round dispatch.

    Dispatches are placed end to end on their own timeline (the hub
    stream records no dispatch timestamps). Within a dispatch, task
    ``i`` lands on slot lane ``i % pool_size``; its *run* segment spans
    ``[t0 + queue_wait, t0 + queue_wait + run]`` and its *queue-wait*
    segment fills the lane idle gap before that, so FIFO slots render
    as contiguous wait/run stripes without overlapping slices.
    """
    cursor = 0.0
    slots_seen: set[int] = set()
    for ev in events:
        if ev.get("type") != "parallel.round":
            continue
        data = ev.get("data") or {}
        shard_s = [float(s) for s in data.get("shard_s", ())]
        queue_s = [float(s) for s in data.get("queue_wait_s", ())]
        if not shard_s:
            continue
        pool = max(1, int(data.get("pool_size", 1)))
        phase = data.get("phase", "parallel")
        t0 = cursor
        slot_end = {}
        dispatch_end = t0
        for i, run_s in enumerate(shard_s):
            slot = i % pool
            slots_seen.add(slot)
            wait = queue_s[i] if i < len(queue_s) else 0.0
            run_start = t0 + wait
            # wait stripe: from when this slot lane went idle (or the
            # dispatch start) until the task actually started running
            wait_start = max(t0, slot_end.get(slot, t0))
            run_start = max(run_start, wait_start)
            if run_start > wait_start:
                out.append({
                    "ph": "X",
                    "pid": _PID_PARALLEL,
                    "tid": slot,
                    "name": f"{phase} (queue-wait)",
                    "cat": "queue",
                    "ts": wait_start * _US,
                    "dur": (run_start - wait_start) * _US,
                    "args": {"task": i, "seq": ev.get("seq")},
                })
            out.append({
                "ph": "X",
                "pid": _PID_PARALLEL,
                "tid": slot,
                "name": f"{phase} shard {i}",
                "cat": "shard",
                "ts": run_start * _US,
                "dur": run_s * _US,
                "args": {
                    "task": i,
                    "backend": data.get("backend"),
                    "queue_wait_s": wait,
                    "seq": ev.get("seq"),
                },
            })
            slot_end[slot] = run_start + run_s
            dispatch_end = max(dispatch_end, slot_end[slot])
        cursor = dispatch_end
    return slots_seen


#: resource.sample payload key -> (counter track name, scale)
_COUNTERS = (
    ("rss_bytes", "rss_mb", 1.0 / (1024 * 1024)),
    ("gc_collections", "gc_collections", 1.0),
    ("gc_pause_s_total", "gc_pause_ms_total", 1e3),
    ("tracemalloc_peak_bytes", "tracemalloc_peak_mb", 1.0 / (1024 * 1024)),
)


def _resource_events(
    events: list[dict], out: list[dict], round_ends: list[float]
) -> bool:
    """Counter tracks from resource.sample events (side-stream merges).

    Samples are taken at round boundaries; when the trace also contains
    the round spans, the *k*-th sample is pinned to the *k*-th round's
    reconstructed end so counters line up with the span lanes.
    """
    k = 0
    found = False
    for ev in events:
        if ev.get("type") != "resource.sample":
            continue
        data = ev.get("data") or {}
        found = True
        ts = (round_ends[k] if k < len(round_ends) else float(k)) * _US
        k += 1
        for key, track, scale in _COUNTERS:
            if key in data:
                out.append({
                    "ph": "C",
                    "pid": _PID_RESOURCES,
                    "tid": 0,
                    "name": track,
                    "ts": ts,
                    "args": {"value": float(data[key]) * scale},
                })
    return found


def events_to_perfetto(events: list[dict]) -> dict:
    """Convert one telemetry event stream to a trace-event JSON object."""
    trace_events: list[dict] = [
        _process_meta(_PID_TRAINER, "trainer"),
        _thread_meta(_PID_TRAINER, 1, "spans"),
    ]
    roots = build_span_tree(events)
    _span_events(roots, trace_events)

    # round-end positions, for pinning resource counters to the timeline
    round_ends: list[float] = []

    def collect_round_ends(node: SpanNode, start: float) -> None:
        if node.name == "trainer.round":
            round_ends.append(start + node.dur_s)
        child_t = start
        for child in node.children:
            collect_round_ends(child, child_t)
            child_t += child.dur_s

    cursor = 0.0
    for root in roots:
        collect_round_ends(root, cursor)
        cursor += root.dur_s

    slots = _parallel_events(events, trace_events)
    if slots:
        trace_events.insert(
            1, _process_meta(_PID_PARALLEL, "parallel backend")
        )
        for slot in sorted(slots):
            trace_events.append(
                _thread_meta(_PID_PARALLEL, slot, f"slot {slot}")
            )
    if _resource_events(events, trace_events, round_ends):
        trace_events.insert(1, _process_meta(_PID_RESOURCES, "resources"))
    trace = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.perf",
            "note": (
                "synthetic timeline: span durations/nesting are measured, "
                "absolute positions are reconstructed from close order"
            ),
        },
    }
    validate_trace(trace)
    return trace


def validate_trace(trace: dict) -> None:
    """Structural check of a trace-event JSON object (raises ValueError).

    Verifies what the viewers actually require: a ``traceEvents`` list;
    every event a dict with a ``ph``; complete events with finite
    non-negative ``ts``/``dur`` plus ``pid``/``tid``/``name``; counter
    events with numeric ``args`` values; metadata events with ``args``.
    """
    if not isinstance(trace, dict) or not isinstance(
        trace.get("traceEvents"), list
    ):
        raise ValueError("trace must be a dict with a traceEvents list")
    for i, ev in enumerate(trace["traceEvents"]):
        if not isinstance(ev, dict) or "ph" not in ev:
            raise ValueError(f"traceEvents[{i}]: not an event dict with ph")
        ph = ev["ph"]
        if ph == "M":
            if "name" not in ev or not isinstance(ev.get("args"), dict):
                raise ValueError(f"traceEvents[{i}]: metadata needs name+args")
            continue
        for key in ("pid", "tid", "name", "ts"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}]: {ph!r} event missing {key}")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
            raise ValueError(f"traceEvents[{i}]: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                raise ValueError(f"traceEvents[{i}]: bad dur {dur!r}")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) and v == v for v in args.values()
            ):
                raise ValueError(
                    f"traceEvents[{i}]: counter args must be finite numbers"
                )
        else:
            raise ValueError(f"traceEvents[{i}]: unsupported phase {ph!r}")


def write_perfetto(path, events: list[dict]) -> Path:
    """Export ``events`` as validated trace-event JSON at ``path``."""
    path = Path(path)
    trace = events_to_perfetto(events)
    path.write_text(json.dumps(trace, separators=(",", ":")) + "\n")
    return path
