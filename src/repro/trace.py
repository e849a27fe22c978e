"""``python -m repro.trace`` — answer questions from a JSONL trace.

Usage::

    python -m repro.trace summary  trace.jsonl           # per-round tables
    python -m repro.trace scan     trace.jsonl --strict  # monitor replay
    python -m repro.trace perf     trace.jsonl           # span breakdown
    python -m repro.trace perf     --diff old.jsonl new.jsonl
    python -m repro.trace explain  a.jsonl b.jsonl --worker 5 --round 12
    python -m repro.trace worker   a.jsonl b.jsonl --worker 5
    python -m repro.trace round    a.jsonl b.jsonl --round 12
    python -m repro.trace fairness a.jsonl b.jsonl --dir snapdir
    python -m repro.trace verify   a.jsonl b.jsonl --dir snapdir --strict

``summary`` renders the mechanism table, phase times and gauges
(:mod:`repro.telemetry.summary`). ``scan`` replays the trace
through the monitor's rule engine, so its alerts equal the live run's;
``--watch`` tails a growing trace. ``perf`` prints the top-down span
table, exports Perfetto JSON and attributes a ``--diff`` to phases
(:mod:`repro.perf`). The lineage subcommands (:mod:`repro.audit`) take a
killed run's trace followed by its resume's, concatenated in argument
order.

Every subcommand reads through :func:`repro.telemetry.read_trace` and
shares one exit-code table: 0 ok, 1 a gate failed, 2 the trace cannot
answer (DESIGN.md §10 documents the table and the cut-tail rule).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from contextlib import contextmanager

from .audit import (
    AuditError,
    cohort_samples,
    decisions_from_trace,
    explain_decision,
    explain_lines,
    fairness_report,
    find_decision,
    round_lines,
    skipped_rounds,
    verify_service,
    verify_trace,
    worker_lines,
)
from .monitor import MonitorConfig, scan_events
from .monitor.recorder import FlightRecorder
from .monitor.rules import RuleEngine
from .perf import (
    aggregate_tree,
    build_span_tree,
    diff_traces,
    format_diff,
    format_tree_table,
    perf_summary,
    write_perfetto,
)
from .telemetry import SCHEMA_VERSION, render_summary, trace_summary
from .telemetry.sinks import (
    FIELD_ERRORS,
    TraceError,
    TraceTruncated,
    decode_lines,
    read_trace,
)

__all__ = ["main"]

#: per-event-type fields every fold keys on; every other event type
#: carries its payload as a ``data`` object
_FIELDS = {
    "span": {"name": (str,), "depth": (int,), "dur_s": (int, float)},
    "metric": {"name": (str,), "value": (int, float)},
}


def _envelope_problem(ev: dict) -> str | None:
    """What is wrong with one event's envelope, or None."""
    if type(ev.get("type")) is not str:
        return "no string 'type'"
    seq = ev.get("seq")
    if seq is not None and type(seq) is not int:
        return "'seq' is not an integer"
    fields = _FIELDS.get(ev["type"])
    if fields is None:
        data = ev.get("data")
        if type(data) is not dict:
            return "no 'data' object"
        rnd = data.get("round")
        if rnd is not None and type(rnd) is not int:
            return "'data.round' is not an integer"
        return None
    for name, types in fields.items():
        if type(ev.get(name)) not in types:
            return f"'{name}' is missing or not a {types[0].__name__}"
    return None


@contextmanager
def _warnings_to_stderr():
    """Print the reader's cut-tail warnings as one line each."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TraceTruncated)
        yield
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)


@contextmanager
def _snapshot_errors():
    """A ``--dir`` snapshot that fails its checks exits 2, as the lineage
    cannot answer from it; the message names the snapshot."""
    from .service.snapshot import SnapshotError

    try:
        yield
    except SnapshotError as exc:
        raise AuditError(f"snapshot: {exc}") from None


class _Traces:
    """Reads one command's trace files; names the file an event came from."""

    def __init__(self) -> None:
        self._read: list[tuple[str, list[dict]]] = []

    def load(self, path) -> list[dict]:
        """Events of ``path``; unreadable, empty or malformed raises."""
        with _warnings_to_stderr():
            try:
                events = read_trace(path)
            except OSError as exc:
                raise TraceError(f"cannot read trace: {exc}") from None
        if not events:
            raise TraceError(f"trace {path} contains no events")
        self._read.append((str(path), events))
        foreign = 0
        for ev in events:
            problem = _envelope_problem(ev)
            if problem is not None:
                raise TraceError(f"malformed event ({problem})", ev)
            if ev.get("v") not in (None, SCHEMA_VERSION):
                foreign += 1
        if foreign:
            print(
                f"warning: {path}: {foreign} events with unknown schema "
                f"version (this reader understands v{SCHEMA_VERSION})",
                file=sys.stderr,
            )
        return events

    def load_all(self, paths) -> list[dict]:
        """Segments concatenated in argument order."""
        events: list[dict] = []
        for path in paths:
            events.extend(self.load(path))
        return events

    def where(self, obj) -> str:
        """``path: seq N`` of the event that is (or carries) ``obj``."""
        for path, events in self._read:
            for i, ev in enumerate(events, 1):
                if ev is obj or ev.get("data") is obj:
                    seq = ev.get("seq")
                    return f"{path}: " + (
                        f"seq {seq}" if seq is not None else f"event {i}"
                    )
        return "trace"


# -- summary -------------------------------------------------------------------


def _cmd_summary(args, traces: _Traces) -> int:
    events = traces.load(args.trace)
    if args.json:
        print(json.dumps(trace_summary(events), indent=2))
    else:
        for row in render_summary(events, max_rounds=args.rounds):
            print(row)
    return 0


# -- scan ----------------------------------------------------------------------


def _print_alert(alert, stream) -> None:
    where = f"seq={alert.seq}" if alert.seq is not None else "seq=?"
    rnd = f" round={alert.round}" if alert.round is not None else ""
    print(
        f"ALERT [{alert.kind}] {alert.rule} ({where}{rnd}): {alert.message}",
        file=stream,
    )


def _watch(args, config: MonitorConfig) -> int:
    """Tail a growing trace, alerting live."""
    engine = RuleEngine(config)
    recorder = FlightRecorder(
        ring_size=config.ring_size, out_dir=config.postmortem_dir,
        run_id=config.run_id,
    )
    alerts = []
    buf = ""
    line_no = 1
    last_data = time.monotonic()

    def malformed_at(event: dict, problem: str) -> TraceError:
        return TraceError(
            f"{args.trace}: seq {event.get('seq', '?')}: "
            f"malformed event ({problem})"
        )

    def feed(lines: list[str]) -> None:
        for event in decode_lines(lines, args.trace, line_no):
            problem = _envelope_problem(event)
            if problem is not None:
                raise malformed_at(event, problem)
            recorder.record(event)
            try:
                fired = engine.process(event)
            except FIELD_ERRORS as exc:
                raise malformed_at(
                    event, f"{type(exc).__name__}: {exc}"
                ) from None
            if fired:
                alerts.extend(fired)
                for a in fired:
                    _print_alert(a, sys.stderr)
                recorder.dump("alert", alerts)

    try:
        fh = open(args.trace, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise TraceError(f"cannot read trace: {exc}") from None
    with fh:
        while True:
            chunk = fh.read()
            if chunk:
                last_data = time.monotonic()
                *lines, buf = (buf + chunk).split("\n")
                feed([line + "\n" for line in lines])
                line_no += len(lines)
            elif (
                args.idle_exit is not None
                and time.monotonic() - last_data > args.idle_exit
            ):
                break
            else:
                try:
                    time.sleep(args.poll)
                except KeyboardInterrupt:
                    break
    if buf:
        with _warnings_to_stderr():
            feed([buf])  # a last line the writer never finished
    print(f"watch: {len(alerts)} alert(s)", file=sys.stderr)
    return 1 if alerts and config.strict else 0


def _cmd_scan(args, traces: _Traces) -> int:
    run_id = args.run_id
    if run_id is None:
        stem = str(args.trace).rsplit("/", 1)[-1]
        run_id = stem[:-6] if stem.endswith(".jsonl") else stem
    config = MonitorConfig(
        strict=args.strict, postmortem_dir=args.postmortem, run_id=run_id
    )
    if args.watch:
        return _watch(args, config)

    events = traces.load(args.trace)
    alerts = scan_events(events, config)
    if args.json:
        print(json.dumps(
            {
                "trace": str(args.trace),
                "events": len(events),
                "alerts": [a.to_dict() for a in alerts],
            },
            indent=2,
        ))
    else:
        for a in alerts:
            _print_alert(a, sys.stdout)
        print(f"scanned {len(events)} events: {len(alerts)} alert(s)")

    if alerts and args.postmortem:
        recorder = FlightRecorder(
            ring_size=config.ring_size, out_dir=args.postmortem, run_id=run_id
        )
        for event in events[-config.ring_size:]:
            recorder.record(event)
        path = recorder.dump("scan", alerts)
        print(f"postmortem: {path}", file=sys.stderr)

    if args.expect_alerts:
        if not alerts:
            print("expected alerts, none fired", file=sys.stderr)
            return 1
        return 0
    return 1 if alerts and args.strict else 0


# -- perf ----------------------------------------------------------------------


def _cmd_perf(args, traces: _Traces) -> int:
    if args.diff:
        if args.trace:
            args.parser.error("--diff takes its two traces as flag arguments")
        return _perf_diff(args, traces)
    if not args.trace:
        args.parser.error("pass a trace file or --diff OLD NEW")
    events = traces.load(args.trace)
    if args.perfetto:
        extra = traces.load(args.resources) if args.resources else []
        try:
            path = write_perfetto(args.perfetto, events + extra)
        except ValueError as exc:  # the export breaks the viewer contract
            raise TraceError(
                f"{args.trace}: cannot export to Perfetto ({exc})"
            ) from None
        print(f"[perfetto trace saved to {path}]", file=sys.stderr)
    summary = perf_summary(events)
    table = aggregate_tree(build_span_tree(events))
    if args.json:
        print(json.dumps({
            "summary": summary,
            "spans": {
                "/".join(path): stat for path, stat in sorted(table.items())
            },
        }, indent=2))
        return 0
    rw = summary["round_wall_s"]
    print(
        f"perf: {summary['rounds']} rounds, round wall p50={rw['p50']:.4f}s "
        f"p90={rw['p90']:.4f}s max={rw['max']:.4f}s"
    )
    top = summary["top_phase"]
    if top is not None:
        print(
            f"top phase by self time: {top['name']} "
            f"({top['self_s']:.4f}s self, {top['share']:.0%} of self time, "
            f"{top['calls']} calls)"
        )
    for row in format_tree_table(table, min_share=args.min_share):
        print(row)
    return 0


def _perf_diff(args, traces: _Traces) -> int:
    old_path, new_path = args.diff
    diff = diff_traces(traces.load(old_path), traces.load(new_path))
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        for row in format_diff(
            diff, top=args.top, threshold_s=args.threshold_s
        ):
            print(row)
    if args.fail_above is not None:
        # self times partition the wall clock exactly, so the gate ratio
        # is (new self total - old self total) / old self total
        old_total = sum(p["a_self_s"] for p in diff["phases"])
        regression_pct = (
            100.0 * diff["total_delta_s"] / old_total if old_total > 0 else 0.0
        )
        if regression_pct > args.fail_above:
            print(
                f"perf --diff: total regression {regression_pct:+.1f}% "
                f"exceeds --fail-above {args.fail_above}%",
                file=sys.stderr,
            )
            return 1
    return 0


# -- decision lineage ----------------------------------------------------------


def _cmd_explain(args, traces: _Traces) -> int:
    decisions = decisions_from_trace(traces.load_all(args.traces))
    d = find_decision(decisions, args.worker, args.round)
    if d is None:
        raise AuditError(
            f"no decision for worker {args.worker} in round {args.round} "
            f"(not sampled, or round absent from the trace)"
        )
    if args.json:
        print(json.dumps(explain_decision(d), indent=2, sort_keys=True))
    else:
        for line in explain_lines(d):
            print(line)
    return 0


def _cmd_worker(args, traces: _Traces) -> int:
    events = traces.load_all(args.traces)
    decisions = decisions_from_trace(events)
    skipped = skipped_rounds(events)
    if args.json:
        rows = [d.as_dict() for d in decisions if d.worker == args.worker]
        print(json.dumps({"worker": args.worker, "decisions": rows,
                          "skipped_rounds": skipped}, indent=2, sort_keys=True))
        return 0
    for line in worker_lines(decisions, args.worker, skipped):
        print(line)
    return 0


def _cmd_round(args, traces: _Traces) -> int:
    events = traces.load_all(args.traces)
    decisions = decisions_from_trace(events)
    if args.json:
        rows = [d.as_dict() for d in decisions if d.round == args.round]
        print(json.dumps({"round": args.round, "decisions": rows},
                         indent=2, sort_keys=True))
        return 0
    for line in round_lines(decisions, args.round, skipped_rounds(events)):
        print(line)
    return 0


def _attacker_ids(args) -> set[int] | None:
    ids = set(args.attackers or ())
    if args.dir:
        from .service.snapshot import latest_snapshot, load_snapshot

        snap = latest_snapshot(args.dir)
        if snap is not None:
            with _snapshot_errors():
                config, _ = load_snapshot(snap)
            ids.update(int(w) for w in config.attackers)
    return ids or None


def _cmd_fairness(args, traces: _Traces) -> int:
    events = traces.load_all(args.traces)
    report = fairness_report(
        decisions_from_trace(events),
        attackers=_attacker_ids(args),
        cohorts=cohort_samples(events) or None,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    cum = report["cumulative"]
    print(
        f"fairness over {report['rounds']} rounds, {report['workers']} "
        f"workers: cumulative reward Gini {cum['reward_gini']:.4f}, "
        f"share entropy {cum['share_entropy']:.4f}"
    )
    print(
        f"{'worker':>6} {'rounds':>7} {'accepted':>9} {'flagged':>8} "
        f"{'uncertain':>10} {'final_rep':>10} {'cum_reward':>11}"
    )
    for row in report["per_worker"]:
        print(
            f"{row['worker']:>6} {row['rounds']:>7} {row['accepted']:>9} "
            f"{row['flagged']:>8} {row['uncertain']:>10} "
            f"{row['final_reputation']:>10.4f} "
            f"{row['cumulative_reward']:>11.4f}"
        )
    groups = report.get("groups")
    if groups:
        for name in ("attacker", "honest"):
            g = groups[name]
            mean = g["reward_mean"]
            print(
                f"{name}: {g['workers']} workers, total reward "
                f"{g['reward_total']:.4f}"
                + (f", mean {mean:.4f}" if mean is not None else "")
                + f", flagged rounds {g['flagged_rounds']}"
            )
        ratio = groups.get("attacker_reward_ratio")
        if ratio is not None:
            print(f"attacker/honest mean-reward ratio: {ratio:.4f}")
    cohorts = report.get("cohorts")
    if cohorts:
        print(
            f"cohorts: {cohorts['sampled_rounds']} sampled rounds over "
            f"population {cohorts['population_size']}, participation "
            f"min/median/max {cohorts['participation_min']}/"
            f"{cohorts['participation_median']}/"
            f"{cohorts['participation_max']}, final coverage "
            f"{cohorts['coverage_final']}"
        )
    return 0


def _cmd_verify(args, traces: _Traces) -> int:
    events = traces.load_all(args.traces)
    report = verify_trace(events)
    if args.dir:
        with _snapshot_errors():
            verify_service(events, args.dir, report=report)
    else:
        report.skip("snapshot-manifest", "no --dir given")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    ok = report.ok_strict() if args.strict else report.ok
    return 0 if ok else 1


# -- entry point ---------------------------------------------------------------


def worker_ids(text: str) -> list[int]:
    """``--attackers 3,5`` (argparse reports a bad list as a usage error)."""
    return [int(w) for w in text.split(",")]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="answer questions from a federation's JSONL trace",
        epilog="exit codes: 0 ok, 1 a gate failed, 2 unreadable, empty or "
               "corrupt trace, malformed event, or audit error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, fn, traces: str):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if traces == "+":
            p.add_argument("traces", nargs="+", help="JSONL trace file(s); "
                           "concatenate kill/resume segments")
        else:
            p.add_argument("trace", nargs=traces, help="JSONL trace file")
        p.add_argument("--json", action="store_true",
                       help="print machine-readable JSON instead of text")
        p.set_defaults(fn=fn, parser=p)
        return p.add_argument

    arg = add("summary", "per-round mechanism tables and phase times",
              _cmd_summary, None)
    arg("--rounds", type=int, default=20,
        help="max per-round rows to print (0 = all; default 20)")

    arg = add("scan", "replay a trace through the monitor rule engine",
              _cmd_scan, None)
    arg("--strict", action="store_true",
        help="exit 1 if any alert fires (clean-run gate)")
    arg("--expect-alerts", action="store_true",
        help="exit 1 if NO alert fires (fault-injection gate)")
    arg("--postmortem", metavar="DIR", default=None,
        help="write postmortem-<run>.jsonl under DIR when alerts fire")
    arg("--run-id", default=None,
        help="run id for the post-mortem file name (default: trace stem)")
    arg("--watch", action="store_true",
        help="tail the trace as it grows, printing alerts live")
    arg("--poll", type=float, default=0.2,
        help="watch-mode poll interval in seconds (default 0.2)")
    arg("--idle-exit", type=float, default=None, metavar="SECONDS",
        help="watch mode: exit after this long with no new trace data")

    arg = add("perf", "span breakdown, Perfetto export, trace diffs",
              _cmd_perf, "?")
    arg("--diff", nargs=2, metavar=("OLD", "NEW"),
        help="attribute per-phase wall-time deltas between two traces")
    arg("--perfetto", default="",
        help="export the trace as Chrome-trace-event JSON at this path")
    arg("--resources", default="",
        help="resource.sample JSONL side stream to merge into the export")
    arg("--min-share", type=float, default=0.0,
        help="hide span paths below this fraction of total time (default 0)")
    arg("--top", type=int, default=15,
        help="max phases in the diff report (default 15, 0 = all)")
    arg("--threshold-s", type=float, default=0.0,
        help="hide diff rows with |delta| below this many seconds")
    arg("--fail-above", type=float, default=None,
        help="exit 1 when the diff's total self-time regression exceeds "
             "this percentage of the old total (default: never fail)")

    arg = add("explain", "decompose one (worker, round) decision",
              _cmd_explain, "+")
    arg("--worker", type=int, required=True)
    arg("--round", type=int, required=True)
    arg = add("worker", "one worker's decision timeline", _cmd_worker, "+")
    arg("--worker", type=int, required=True)
    arg = add("round", "one round's per-worker decision table", _cmd_round,
              "+")
    arg("--round", type=int, required=True)
    arg = add("fairness", "cumulative fairness drill-down", _cmd_fairness,
              "+")
    arg("--attackers", type=worker_ids, default=None,
        help="comma-separated attacker worker ids for the group split")
    arg("--dir", default=None,
        help="service snapshot dir (attacker ids read from its config)")
    arg = add("verify", "cross-check lineage vs ledger/store/snapshots",
              _cmd_verify, "+")
    arg("--dir", default=None,
        help="service snapshot dir for the continuity checks")
    arg("--strict", action="store_true",
        help="skipped checks (missing prerequisites) count as failures")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    traces = _Traces()
    try:
        return args.fn(args, traces)
    except TraceError as exc:
        where = "" if exc.event is None else f"{traces.where(exc.event)}: "
        print(f"{where}{exc}", file=sys.stderr)
    except AuditError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
