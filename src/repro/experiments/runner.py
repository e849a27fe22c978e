"""Run paper experiments from the command line and save JSON results.

Usage::

    python -m repro.experiments.runner --figures fig11,fig12 --out results/
    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --all --fast

``--fast`` runs each driver at a reduced scale (sanity-check speed);
without it the drivers run at their report-scale defaults. Every figure
goes through the declarative registry (:mod:`.registry`): the same
``default_config() / run(cfg) / format_rows(result)`` calls for all of
them, with ``--fast`` applied as ``cfg.scaled(**spec.fast_overrides)``
in one place. Results are written one JSON file per figure (result keys
at the top level plus a ``_meta`` block with elapsed time, the
round-engine per-phase timings, and a ``trace`` telemetry summary —
rounds observed, flagged-worker totals, mean reward Gini/share entropy,
and the span-timing table) and printed in the paper's row format.
``--all`` keeps going when a driver fails, prints a per-figure pass/fail
summary, and exits non-zero if anything failed.

Every figure runs under a fresh :class:`repro.monitor.Monitor`: its
alert summary lands in the ``_meta.alerts`` block, post-mortem dumps go
next to the JSON results, and ``--strict`` turns any alert into a
non-zero exit (the CI clean-run gate). A per-figure
:class:`repro.perf.ResourceProbe` adds ``_meta.resources`` (RSS
envelope, GC pauses) and the span stream is folded into ``_meta.perf``
(round wall-time percentiles + the top phase by self time).

Set ``REPRO_TRACE=/path/to/trace.jsonl`` to also stream the full
telemetry trace (spans, mechanism metrics, sim.round events) to a JSONL
file; render it with ``python -m repro.trace summary``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

from ..monitor import Monitor, MonitorConfig
from ..perf.aggregate import perf_summary
from ..perf.resources import ResourceProbe
from ..telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    get_telemetry,
    profile_delta,
    set_telemetry,
    trace_summary,
)
from .registry import FIGURES, REGISTRY

__all__ = ["FIGURES", "REGISTRY", "run_figure", "main"]


def _jsonable(obj):
    """Recursively convert results (numpy scalars, tuple keys) to JSON."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and obj != obj:  # NaN
        return None
    return obj


def run_figure(fig_id: str, fast: bool = False) -> tuple[dict, list[str]]:
    """Run one figure's driver; returns (result, printable rows)."""
    spec = FIGURES.get(fig_id)
    if spec is None:
        raise ValueError(
            f"unknown figure {fig_id!r}; available: {', '.join(sorted(FIGURES))}"
        )
    return spec.run(fast)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__
    )
    parser.add_argument(
        "--figures", default="", help="comma-separated figure ids (fig04..fig14)"
    )
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument("--fast", action="store_true", help="reduced scales")
    parser.add_argument("--out", default="", help="directory for JSON results")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if the health monitor raises any alert",
    )
    args = parser.parse_args(argv)

    if args.list:
        for spec in sorted(REGISTRY, key=lambda s: s.fig_id):
            print(f"{spec.fig_id:<12} {spec.title}")
        return 0

    wanted = sorted(FIGURES) if args.all else [
        f.strip() for f in args.figures.split(",") if f.strip()
    ]
    if not wanted:
        parser.error("nothing to run: pass --figures, --all, or --list")
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        parser.error(
            f"unknown figures: {', '.join(unknown)} "
            f"(available: {', '.join(sorted(FIGURES))})"
        )

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    trace_path = os.environ.get("REPRO_TRACE")
    if trace_path:
        set_telemetry(Telemetry(sinks=[MemorySink(), JsonlSink(trace_path)]))

    telemetry = get_telemetry()
    status: dict[str, str] = {}
    total_alerts = 0
    for fig_id in wanted:
        before = telemetry.snapshot()
        seq_before = telemetry.seq
        # A fresh health monitor per figure: it watches the hub for the
        # figure's duration (never strict here — the figure must finish
        # so its alerts can be reported; --strict gates the exit code).
        monitor = Monitor(MonitorConfig(
            postmortem_dir=str(out_dir) if out_dir is not None else None,
            run_id=fig_id,
        ))
        # drain events deferred before this figure so the monitor only
        # sees (and attributes alerts to) this figure's slice
        telemetry.flush()
        monitor.install(telemetry)
        # Resource side stream for the figure: one sample before, one
        # after (figures run many rounds internally; the envelope is the
        # headline). Probes never emit into the hub, so REPRO_TRACE
        # output is unchanged by them.
        probe = ResourceProbe()
        probe.sample(None)
        t0 = time.time()
        try:
            result, rows = run_figure(fig_id, fast=args.fast)
        except Exception:
            status[fig_id] = "FAIL"
            print(f"\n=== {fig_id} FAILED ===", file=sys.stderr)
            traceback.print_exc()
            telemetry.flush()
            monitor.dump_postmortem("figure raised")
            monitor.uninstall()
            probe.close()
            total_alerts += len(monitor.alerts)
            continue
        finally:
            telemetry.flush()
            monitor.uninstall()
        elapsed = time.time() - t0
        probe.sample(None)
        probe.close()
        status[fig_id] = "ok"
        total_alerts += len(monitor.alerts)
        print(f"\n=== {fig_id} ({elapsed:.1f}s) ===")
        for row in rows:
            print(row)
        if monitor.alerts:
            print(
                f"[{fig_id}: {len(monitor.alerts)} monitor alert(s): "
                + ", ".join(sorted({a.rule for a in monitor.alerts}))
                + "]",
                file=sys.stderr,
            )
        if out_dir is not None:
            payload = _jsonable(result)
            # This figure's slice of the event stream (seq is monotonic,
            # so the filter survives ring-buffer eviction of older runs).
            fig_events = [
                ev for ev in telemetry.events() if ev["seq"] >= seq_before
            ]
            payload["_meta"] = {
                "figure": fig_id,
                "fast": args.fast,
                "elapsed_s": elapsed,
                "profile": profile_delta(before, telemetry.snapshot()),
                "trace": trace_summary(fig_events),
                "perf": perf_summary(fig_events),
                "resources": probe.summary(),
                "alerts": monitor.alerts_summary(),
            }
            path = out_dir / f"{fig_id}.json"
            path.write_text(json.dumps(payload, indent=2))
            print(f"[saved {path}]")

    failed = [f for f, s in status.items() if s == "FAIL"]
    if len(status) > 1 or failed:
        print("\n--- summary ---")
        for fig_id in wanted:
            print(f"{fig_id:<12} {status[fig_id]}")
    if failed:
        return 1
    if args.strict and total_alerts:
        print(
            f"--strict: {total_alerts} monitor alert(s) across "
            f"{len(wanted)} figure(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
