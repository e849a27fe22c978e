"""Structured telemetry: spans, mechanism metrics, sinks, trace summaries.

The always-on observability layer of the simulator (ISSUE 3). One
process-wide :class:`Telemetry` hub (:func:`get_telemetry` /
:func:`set_telemetry`) carries:

* hierarchical **spans** (run → round → phase → per-server slice) with
  attributes and monotonic timing, with the old flat profiler's phase
  table (``phase`` / ``snapshot`` / :func:`profile_delta`) maintained
  underneath;
* a **metrics registry**: counters, last-value gauges, and fixed-bucket
  histograms for mechanism signals (detection margins, reward Gini,
  reputation deltas, fleet-group sizes);
* pluggable **sinks**: :class:`MemorySink` (default, bounded ring) and
  :class:`JsonlSink` (canonical versioned JSONL event stream — seeded
  runs with a :class:`TickClock` produce byte-identical traces);
* trace analysis (:func:`trace_summary`, :func:`render_summary`)
  backing the ``python -m repro.trace summary`` CLI.
"""

from .core import (
    SCHEMA_VERSION,
    Histogram,
    Telemetry,
    TickClock,
    format_profile,
    get_telemetry,
    profile_delta,
    set_telemetry,
)
from .sinks import (
    JsonlSink,
    MemorySink,
    decode_event,
    encode_event,
    read_trace,
)
from .summary import (
    aggregate_spans,
    parallel_summary,
    render_summary,
    trace_summary,
)

__all__ = [
    "SCHEMA_VERSION",
    "Telemetry",
    "TickClock",
    "Histogram",
    "get_telemetry",
    "set_telemetry",
    "profile_delta",
    "format_profile",
    "MemorySink",
    "JsonlSink",
    "encode_event",
    "decode_event",
    "read_trace",
    "trace_summary",
    "render_summary",
    "aggregate_spans",
    "parallel_summary",
]
