"""Span-tree reconstruction and flame-style aggregation over traces.

The telemetry hub emits one ``span`` event per occurrence *at close
time*, carrying its duration and the stack ``depth`` it closed at —
never an absolute timestamp (wall-clock stamps would break the
byte-identical seeded-trace contract). Everything in this module (and
the Perfetto exporter built on it) therefore works from the close-order
stream:

* :func:`build_span_tree` — rebuild the span hierarchy from the
  ``(seq, depth)`` sequence alone. Spans close in stream order, and a
  parent closes after all of its children, so the children of a span
  closing at depth *d* are exactly the not-yet-claimed spans that closed
  at depth *d+1* before it.
* :func:`aggregate_tree` — fold the tree into per-*path* rows
  (``trainer.run/trainer.round/trainer.mechanism``) with total seconds,
  **self** seconds (total minus direct children) and call counts: the
  top-down flame view ``python -m repro.trace perf`` renders.
* :func:`diff_traces` — per-phase wall-time deltas between two traces,
  ranked by absolute delta: the regression-attribution half of the CLI.
  Sign convention: ``delta_s = new - old``, so **positive means the new
  trace is slower** (a regression), negative means it got faster.
* :func:`perf_summary` — the compact headline block the experiment
  runner embeds as ``_meta.perf``: round wall-time percentiles and the
  top self-time phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry.sinks import FIELD_ERRORS, malformed

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
]


@dataclass
class SpanNode:
    """One span occurrence in the reconstructed hierarchy."""

    name: str
    kind: str
    depth: int
    dur_s: float
    seq: int
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_s(self) -> float:
        """Duration not accounted for by direct children."""
        return max(0.0, self.dur_s - sum(c.dur_s for c in self.children))


def build_span_tree(events: list[dict]) -> list[SpanNode]:
    """Rebuild the span forest from a materialized event stream.

    Returns the roots in close order. Tolerates truncated traces: spans
    whose parent never closed (a crashed run) simply surface as roots.
    A span with an ill-typed field raises
    :class:`~repro.telemetry.sinks.TraceError`.
    """
    pending: dict[int, list[SpanNode]] = {}
    for ev in events:
        if ev.get("type") != "span":
            continue
        try:
            depth = int(ev.get("depth", 1))
            node = SpanNode(
                name=ev.get("name", "?"),
                kind=ev.get("kind", "span"),
                depth=depth,
                dur_s=float(ev.get("dur_s", 0.0)),
                seq=int(ev.get("seq", -1)),
                attrs=dict(ev.get("attrs") or {}),
                children=pending.pop(depth + 1, []),
            )
        except FIELD_ERRORS as exc:
            raise malformed(ev, exc) from exc
        pending.setdefault(depth, []).append(node)
    # Anything left unclaimed (normally just depth-1 spans; deeper only
    # when the enclosing span never closed) becomes a root, in seq order.
    roots: list[SpanNode] = []
    for nodes in pending.values():
        roots.extend(nodes)
    roots.sort(key=lambda n: n.seq)
    return roots


def aggregate_tree(roots: list[SpanNode]) -> dict[tuple, dict]:
    """Per-path totals: ``{(name, ...): {"total_s", "self_s", "calls"}}``.

    Paths are name tuples from the root down, so the same phase nested
    under different parents (``trainer.evaluate`` inside vs outside a
    round) aggregates separately — the top-down flame view.
    """
    table: dict[tuple, dict] = {}

    def visit(node: SpanNode, prefix: tuple) -> None:
        path = prefix + (node.name,)
        slot = table.setdefault(
            path, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        slot["total_s"] += node.dur_s
        slot["self_s"] += node.self_s
        slot["calls"] += 1
        for child in node.children:
            visit(child, path)

    for root in roots:
        visit(root, ())
    return table


def flat_spans(events: list[dict]) -> dict[str, dict]:
    """Flat per-name totals (every occurrence, any nesting) with self time."""
    roots = build_span_tree(events)
    flat: dict[str, dict] = {}

    def visit(node: SpanNode) -> None:
        slot = flat.setdefault(
            node.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        slot["total_s"] += node.dur_s
        slot["self_s"] += node.self_s
        slot["calls"] += 1
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    return flat


def format_tree_table(table: dict[tuple, dict], min_share: float = 0.0) -> list[str]:
    """Indented flame-style rows, siblings ordered by total time.

    ``min_share`` hides paths below that fraction of the root total
    (0 = show everything).
    """
    roots_total = sum(
        stat["total_s"] for path, stat in table.items() if len(path) == 1
    )
    rows = [
        f"{'total_s':>10} {'self_s':>10} {'calls':>7}  span"
    ]

    def emit(prefix: tuple) -> None:
        children = sorted(
            (
                (path, stat)
                for path, stat in table.items()
                if len(path) == len(prefix) + 1 and path[: len(prefix)] == prefix
            ),
            key=lambda kv: -kv[1]["total_s"],
        )
        for path, stat in children:
            if roots_total > 0 and stat["total_s"] / roots_total < min_share:
                continue
            indent = "  " * (len(path) - 1)
            rows.append(
                f"{stat['total_s']:>10.4f} {stat['self_s']:>10.4f} "
                f"{stat['calls']:>7}  {indent}{path[-1]}"
            )
            emit(path)

    emit(())
    return rows


def diff_traces(
    events_a: list[dict], events_b: list[dict]
) -> dict:
    """Per-phase wall-time deltas between two traces (flat, per name).

    ``a`` is the baseline (old), ``b`` the candidate (new). For every
    span name appearing in either trace the report carries the two
    totals and ``delta_s = b - a`` — **positive = the candidate spends
    more time there (regression)**, negative = improvement. Phases are
    ranked by absolute delta, biggest mover first. Identical traces
    produce an all-zero report.
    """
    flat_a = flat_spans(events_a)
    flat_b = flat_spans(events_b)
    phases = []
    for name in set(flat_a) | set(flat_b):
        a = flat_a.get(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        b = flat_b.get(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        delta = b["total_s"] - a["total_s"]
        phases.append({
            "name": name,
            "a_s": a["total_s"],
            "b_s": b["total_s"],
            "a_self_s": a["self_s"],
            "b_self_s": b["self_s"],
            "a_calls": a["calls"],
            "b_calls": b["calls"],
            "delta_s": delta,
            "delta_self_s": b["self_s"] - a["self_s"],
            "delta_pct": (
                100.0 * delta / a["total_s"] if a["total_s"] > 0 else None
            ),
        })
    phases.sort(key=lambda p: -abs(p["delta_s"]))
    return {
        "phases": phases,
        "rounds_a": len(round_durations(events_a)),
        "rounds_b": len(round_durations(events_b)),
        # self-time deltas partition the wall-clock movement exactly
        # (total_s would double-count nested children)
        "total_delta_s": sum(p["delta_self_s"] for p in phases),
    }


def format_diff(diff: dict, top: int = 15, threshold_s: float = 0.0) -> list[str]:
    """Human-readable diff report: biggest movers first, signed deltas."""
    rows = [
        f"perf diff ({diff['rounds_a']} -> {diff['rounds_b']} rounds): "
        f"positive delta = candidate slower"
    ]
    rows.append(
        f"{'phase':<28} {'old_s':>10} {'new_s':>10} {'delta_s':>10} {'pct':>8}"
    )
    shown = 0
    for p in diff["phases"]:
        if abs(p["delta_s"]) < threshold_s:
            continue
        if top and shown >= top:
            rows.append(f"  ... ({len(diff['phases']) - shown} more phases)")
            break
        pct = f"{p['delta_pct']:+.1f}%" if p["delta_pct"] is not None else "new"
        rows.append(
            f"{p['name']:<28} {p['a_s']:>10.4f} {p['b_s']:>10.4f} "
            f"{p['delta_s']:>+10.4f} {pct:>8}"
        )
        shown += 1
    if shown == 0:
        rows.append("  (no phase deltas above threshold)")
    return rows


def round_durations(events: list[dict], name: str = "trainer.round") -> list[float]:
    """Wall seconds of every round span, in round order."""
    return [
        float(ev.get("dur_s", 0.0))
        for ev in events
        if ev.get("type") == "span" and ev.get("name") == name
    ]


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def perf_summary(events: list[dict]) -> dict:
    """Headline block for run metadata: round percentiles + top phase.

    ``top_phase`` is the phase-kind span with the largest *self* time —
    the single best answer to "where did this run's wall clock go" that
    doesn't double-count nested children.
    """
    durs = sorted(round_durations(events))
    flat = flat_spans(events)
    phases = {
        name: stat for name, stat in flat.items()
        if name not in ("trainer.run", "trainer.round")
    }
    top_name = max(phases, key=lambda n: phases[n]["self_s"], default=None)
    total_self = sum(stat["self_s"] for stat in phases.values())
    top_block = None
    if top_name is not None:
        top = phases[top_name]
        top_block = {
            "name": top_name,
            "self_s": top["self_s"],
            "total_s": top["total_s"],
            "calls": top["calls"],
            "share": (
                top["self_s"] / total_self if total_self > 0 else 0.0
            ),
        }
    return {
        "rounds": len(durs),
        "round_wall_s": {
            "p50": _percentile(durs, 0.50),
            "p90": _percentile(durs, 0.90),
            "max": durs[-1] if durs else 0.0,
            "mean": sum(durs) / len(durs) if durs else 0.0,
        },
        "top_phase": top_block,
    }
