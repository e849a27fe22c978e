"""Performance observability: Perfetto timelines, resource probes, diffs.

The layer that turns the telemetry hub's raw stream into answers to
"where did the time go" and "what regressed" (ISSUE 8):

* :mod:`repro.perf.perfetto` — export a trace's span hierarchy plus the
  execution backend's per-task stats as Chrome-trace-event JSON, with
  one lane per backend slot and queue-wait vs run segments, viewable in
  ``chrome://tracing`` / https://ui.perfetto.dev;
* :mod:`repro.perf.resources` — :class:`ResourceProbe`, a round-boundary
  sampler of RSS, measured GC pauses, optional tracemalloc peak and the
  BLAS thread count, kept on a side stream so seeded hub traces stay
  byte-identical with probes attached;
* :mod:`repro.perf.aggregate` — span-tree reconstruction, flame-style
  top-down aggregation (self/total seconds, calls), per-phase trace
  diffs (``delta > 0`` = regression) and the ``_meta.perf`` headline
  summary;
* ``python -m repro.trace perf`` — the CLI over all of it (see
  :mod:`repro.trace`).
"""

from .aggregate import (
    SpanNode,
    aggregate_tree,
    build_span_tree,
    diff_traces,
    flat_spans,
    format_diff,
    format_tree_table,
    perf_summary,
    round_durations,
)
from .perfetto import events_to_perfetto, validate_trace, write_perfetto
from .resources import ResourceProbe, resource_snapshot, rss_bytes

__all__ = [
    "SpanNode",
    "build_span_tree",
    "aggregate_tree",
    "flat_spans",
    "format_tree_table",
    "diff_traces",
    "format_diff",
    "round_durations",
    "perf_summary",
    "events_to_perfetto",
    "write_perfetto",
    "validate_trace",
    "ResourceProbe",
    "resource_snapshot",
    "rss_bytes",
]
