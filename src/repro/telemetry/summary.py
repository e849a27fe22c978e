"""Trace analysis: compact summaries and human-readable tables.

Works on any list of trace events — live from a :class:`MemorySink`,
or re-read from a JSONL trace file via :func:`repro.telemetry.read_trace`.
Two consumers:

* :func:`trace_summary` — the machine-readable block the experiment
  runner embeds as ``_meta.trace`` in every saved figure JSON;
* :func:`render_summary` — the per-round mechanism table (flagged
  workers, reward Gini, share entropy) plus the phase-time breakdown
  that ``python -m repro.trace summary`` prints.

A payload with a missing or ill-typed field raises
:class:`~repro.telemetry.sinks.TraceError` naming its event.
"""

from __future__ import annotations

from .core import SCHEMA_VERSION, format_profile
from .sinks import FIELD_ERRORS, malformed

__all__ = [
    "trace_summary",
    "render_summary",
    "aggregate_spans",
    "parallel_summary",
]

#: event type emitted once per round by the FIFL mechanism
ROUND_EVENT = "fifl.round"


def aggregate_spans(events: list[dict]) -> dict:
    """Fold span events into a flat ``{name: {"seconds", "calls"}}`` table."""
    timings: dict[str, dict] = {}
    for ev in events:
        if ev.get("type") != "span":
            continue
        slot = timings.setdefault(ev["name"], {"seconds": 0.0, "calls": 0})
        slot["seconds"] += ev.get("dur_s", 0.0)
        slot["calls"] += 1
    return timings


def _round_events(events: list[dict]) -> list[dict]:
    return [ev["data"] for ev in events if ev.get("type") == ROUND_EVENT]


def parallel_summary(events: list[dict]) -> dict | None:
    """Fold ``parallel.round`` dispatch events into one digest.

    Totals the shard run and queue-wait seconds across every dispatch
    and reports the worst *straggler factor* — max shard time over the
    dispatch median — the single number that says whether the pool's
    wall clock was set by one slow shard. None when the trace has no
    parallel dispatches (serial runs stay silent).
    """
    dispatches = [
        ev["data"] for ev in events if ev.get("type") == "parallel.round"
    ]
    if not dispatches:
        return None
    run_s = 0.0
    wait_s = 0.0
    shards = 0
    worst = 0.0
    by_phase: dict[str, dict] = {}
    for d in dispatches:
        try:
            d_run = float(sum(d.get("shard_s", ())))
            d_wait = float(sum(d.get("queue_wait_s", ())))
            d_shards = int(d.get("shards", len(d.get("shard_s", ()))))
            med = float(d.get("median_shard_s", 0.0))
            d_max = float(d.get("max_shard_s", 0.0))
        except FIELD_ERRORS as exc:
            raise malformed(d, exc) from exc
        run_s += d_run
        wait_s += d_wait
        shards += d_shards
        if med > 0.0:
            worst = max(worst, d_max / med)
        slot = by_phase.setdefault(
            str(d.get("phase")),
            {"dispatches": 0, "shards": 0, "run_s": 0.0, "queue_wait_s": 0.0},
        )
        slot["dispatches"] += 1
        slot["shards"] += d_shards if "shards" in d else 0
        slot["run_s"] += d_run
        slot["queue_wait_s"] += d_wait
    last = dispatches[-1]
    return {
        "dispatches": len(dispatches),
        "shards": shards,
        "backend": last.get("backend"),
        "pool_size": last.get("pool_size"),
        "run_s_total": run_s,
        "queue_wait_s_total": wait_s,
        "straggler_factor_max": worst,
        "by_phase": by_phase,
    }


def trace_summary(events: list[dict]) -> dict:
    """Machine-readable digest of one event stream.

    Includes the schema version, event/span/round counts, total flagged
    workers across rounds, the mean per-round reward Gini and share
    entropy, and the aggregated span-timing table.
    """
    rounds = _round_events(events)
    flagged = uncertain = gini_sum = entropy_sum = 0
    ginis = entropies = 0
    for r in rounds:
        try:
            flagged += len(r.get("flagged", []))
            uncertain += len(r.get("uncertain", []))
            if r.get("reward_gini") is not None:
                gini_sum += r["reward_gini"]
                ginis += 1
            if r.get("share_entropy") is not None:
                entropy_sum += r["share_entropy"]
                entropies += 1
        except FIELD_ERRORS as exc:
            raise malformed(r, exc) from exc
    return {
        "schema_version": SCHEMA_VERSION,
        "events": len(events),
        "rounds": len(rounds),
        "flagged_total": flagged,
        "uncertain_total": uncertain,
        "reward_gini_mean": gini_sum / ginis if ginis else None,
        "share_entropy_mean": entropy_sum / entropies if entropies else None,
        "spans": aggregate_spans(events),
        "parallel": parallel_summary(events),
    }


def _fmt_ids(ids: list) -> str:
    return ",".join(str(i) for i in ids) if ids else "-"


def render_summary(
    events: list[dict], max_rounds: int = 20
) -> list[str]:
    """Printable report: header, per-round mechanism table, phase times.

    ``max_rounds`` bounds the per-round table to the trailing rounds
    (0 = unlimited); the header always reports the full totals.
    """
    summary = trace_summary(events)
    rounds = _round_events(events)
    rows = [
        f"trace summary (schema v{summary['schema_version']}): "
        f"{summary['events']} events, {summary['rounds']} rounds, "
        f"{summary['flagged_total']} flagged-worker rounds"
    ]

    if rounds:
        shown = rounds if not max_rounds else rounds[-max_rounds:]
        if len(shown) < len(rounds):
            rows.append(
                f"  (per-round table: last {len(shown)} of {len(rounds)} rounds)"
            )
        rows.append(
            f"{'round':>7} {'accepted':>9} {'flagged':>12} {'uncertain':>10} "
            f"{'reward_gini':>12} {'share_entropy':>14}"
        )
        for r in shown:
            gini = r.get("reward_gini")
            ent = r.get("share_entropy")
            try:
                rows.append(
                    f"{r.get('round', '?'):>7} {r.get('accepted', 0):>9} "
                    f"{_fmt_ids(r.get('flagged', [])):>12} "
                    f"{_fmt_ids(r.get('uncertain', [])):>10} "
                    f"{(f'{gini:.4f}' if gini is not None else '-'):>12} "
                    f"{(f'{ent:.4f}' if ent is not None else '-'):>14}"
                )
            except FIELD_ERRORS as exc:
                raise malformed(r, exc) from exc

    timings = summary["spans"]
    if timings:
        rows.append("phase time breakdown:")
        rows.extend(format_profile({"timings": timings}))

    par = summary["parallel"]
    if par:
        rows.append(
            f"parallel execution: {par['dispatches']} dispatches, "
            f"{par['shards']} shards on {par['backend']} "
            f"(pool={par['pool_size']}), run={par['run_s_total']:.4f}s "
            f"queue-wait={par['queue_wait_s_total']:.4f}s, "
            f"worst straggler {par['straggler_factor_max']:.1f}x median"
        )
        for phase in sorted(par["by_phase"]):
            p = par["by_phase"][phase]
            rows.append(
                f"  {phase:<24} {p['dispatches']:>4} dispatches "
                f"{p['shards']:>5} shards  run={p['run_s']:.4f}s  "
                f"wait={p['queue_wait_s']:.4f}s"
            )

    res = [ev["data"] for ev in events if ev.get("type") == "resource.sample"]
    if res:
        rss = []
        for r in res:
            try:
                rss.append(float(r.get("rss_bytes", 0)))
            except FIELD_ERRORS as exc:
                raise malformed(r, exc) from exc
        last = res[-1]
        try:
            rows.append(
                f"resource samples: {len(res)}, rss last="
                f"{rss[-1] / 2**20:.1f} MiB peak={max(rss) / 2**20:.1f} MiB "
                f"growth={(rss[-1] - rss[0]) / 2**20:+.1f} MiB, "
                f"gc collections={last.get('gc_collections', 0)} "
                f"pauses={last.get('gc_pause_s_total', 0.0):.4f}s"
            )
        except FIELD_ERRORS as exc:
            raise malformed(last, exc) from exc

    gauges: dict[str, float] = {}
    for ev in events:
        if ev.get("type") == "metric" and ev.get("kind") == "gauge":
            gauges[ev["name"]] = ev["value"]
    if gauges:
        rows.append("last gauge values:")
        for name in sorted(gauges):
            rows.append(f"  {name:<24} {gauges[name]:g}")
    return rows
