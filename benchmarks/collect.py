"""Collect per-PR benchmark headlines into ``BENCH_trajectory.json``.

Every performance-focused PR records its benchmark manifests as
``benchmarks/BENCH_<name>.json``. This tool folds the *headline* metric
of each manifest into a single trajectory file at the repository root,
so the performance story across the PR stack is one diff-able document:

    python benchmarks/collect.py --record --label PR5
    python benchmarks/collect.py --check
    python benchmarks/collect.py --show

``--record`` extracts the current headline metrics from each
``BENCH_*.json`` and appends one row per bench (keyed by bench name,
labelled with ``--label``; re-recording an existing label replaces its
row in place). A row whose metrics are an *exact* copy of the previous
row's is marked ``"stale": true`` — benchmark timings never reproduce
float-for-float, so exact equality means the manifest was carried
forward from the previous PR without re-running the bench. Stale rows
stay in the trajectory (the carry-forward itself is part of the
history) but are skipped when picking the ``--check`` baseline, so a
stale copy can never launder a regression into the new baseline.

``--check`` recomputes the same headlines and fails (exit 1) when any
tracked metric regressed beyond tolerance relative to the *last
non-stale row* — the CI guard that a PR cannot silently degrade a
headline it inherited. The check is direction-aware: speedups must not
fall, overheads must not rise. Near-zero overhead percentages get an
absolute slack floor (``ABS_SLACK``) so timing jitter on a sub-1%
number is not flagged as a 20% "regression".

No benchmark is *run* here: the tool only reads the committed
manifests, so the CI step is cheap and deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"

#: default relative tolerance for --check (fraction of the baseline)
DEFAULT_TOLERANCE = 0.20
#: absolute slack (same unit as the metric) added on top of the relative
#: tolerance for percentage metrics that legitimately sit near zero, and
#: for bytes/worker figures whose numerator is a jittery allocator peak
ABS_SLACK = {"pct": 2.0, "bytes_per_worker": 8.0, "speedup": 0.25,
             "seconds": 0.005}


def _max_size_entry(manifest: dict) -> tuple[str, dict]:
    """Largest federation size in a by_size manifest (headline scale)."""
    by_size = manifest.get("by_size") or {}
    if not by_size:
        raise KeyError("manifest has no by_size block")
    key = max(by_size, key=int)
    return key, by_size[key]


def _overheads(manifest: dict, keys: tuple[str, ...]) -> dict:
    """Instrumentation-overhead headlines (percent of a round)."""
    return {
        f"{key}_pct": {
            "value": float(manifest[key]["overhead_pct"]),
            "better": "lower", "unit": "pct",
        }
        for key in keys
        if manifest.get(key) is not None
    }


def extract_engine(manifest: dict) -> dict:
    """Headlines of BENCH_engine.json (round-engine benchmark)."""
    return _overheads(
        manifest,
        ("telemetry_overhead", "monitor_overhead", "resource_overhead"),
    )


def extract_local_step(manifest: dict) -> dict:
    """Headlines of BENCH_local_step.json (fleet local-training)."""
    return _overheads(manifest, ("telemetry_overhead",))


def extract_sim(manifest: dict) -> dict:
    """Headlines of BENCH_sim.json (discrete-event round simulator)."""
    return {
        "sim_overhead_pct": {
            "value": float(manifest["overhead_pct"]),
            "better": "lower", "unit": "pct",
        },
        "bitwise_identical": {
            "value": bool(manifest["bitwise_identical"]), "better": "exact",
        },
    }


def extract_population(manifest: dict) -> dict:
    """Headlines of BENCH_population.json (cross-device scale)."""
    n, entry = _max_size_entry(manifest)
    return {
        f"rounds_per_sec_n{n}": {
            "value": float(entry["rounds_per_sec"]), "better": "higher",
        },
        f"bytes_per_worker_n{n}": {
            "value": float(entry["bytes_per_worker"]),
            "better": "lower", "unit": "bytes_per_worker",
        },
        "cohort_memory_ok": {
            "value": bool(manifest["cohort_memory_ok"]), "better": "exact",
        },
        "bitwise_identical": {
            "value": bool(manifest["bitwise_identical"]), "better": "exact",
        },
    }


def extract_parallel(manifest: dict) -> dict:
    """Headlines of BENCH_parallel.json (execution-backend scaling).

    The speedup headline gets an absolute slack unit: on few-core
    recording machines the parallel best hovers around 1.0x where the
    relative tolerance alone is tighter than scheduler jitter.
    """
    n, entry = _max_size_entry(manifest)
    return {
        f"speedup_parallel_n{n}": {
            "value": float(entry["speedup_best"]),
            "better": "higher", "unit": "speedup",
        },
        "bitwise_identical": {
            "value": bool(manifest["bitwise_identical"]), "better": "exact",
        },
    }


def extract_perf(manifest: dict) -> dict:
    """Headlines of BENCH_perf.json (perf-observability layer).

    The p50 round wall time is the rounds/sec headline (absolute slack
    in seconds: at ~1 ms medians the relative tolerance alone is tighter
    than shared-machine jitter). ``top_phase`` is informational
    (``better: "none"``): which phase dominates is worth tracking in the
    trajectory but a shift is attribution, not a regression.
    """
    return {
        "p50_round_wall_s": {
            "value": float(manifest["p50_round_wall_s"]),
            "better": "lower", "unit": "seconds",
        },
        "top_phase": {
            "value": manifest.get("top_phase"), "better": "none",
        },
        "perfetto_valid": {
            "value": bool(manifest["perfetto_valid"]), "better": "exact",
        },
        "probe_trace_identical": {
            "value": bool(manifest["probe_trace_identical"]),
            "better": "exact",
        },
        "diff_zero": {
            "value": bool(manifest["diff_zero"]), "better": "exact",
        },
    }


def extract_service(manifest: dict) -> dict:
    """Headlines of BENCH_service.json (resumable federation service).

    The booleans are the byte-identity contract (kill/resume differential
    and snapshot round-trip); the throughput and overhead numbers come
    from the traffic-replay harness.
    """
    return {
        "rounds_per_sec": {
            "value": float(manifest["rounds_per_sec"]), "better": "higher",
        },
        "snapshot_overhead_pct": {
            "value": float(manifest["snapshot_overhead_pct"]),
            "better": "lower", "unit": "pct",
        },
        "resume_identical": {
            "value": bool(manifest["resume_identical"]), "better": "exact",
        },
        "trace_identical": {
            "value": bool(manifest["trace_identical"]), "better": "exact",
        },
        "roundtrip_ok": {
            "value": bool(manifest["roundtrip_ok"]), "better": "exact",
        },
        "rss_growth_alerts": {
            "value": int(manifest["rss_growth_alerts"]), "better": "exact",
        },
    }


def extract_audit(manifest: dict) -> dict:
    """Headlines of BENCH_audit.json (incentive audit layer).

    The booleans are the audit layer's correctness contract (offline
    lineage reconstruction byte-identical to live records, trace-level
    verification clean); the overhead percentage is the cost of the
    attribution payload on every ``fifl.round`` event.
    """
    diff = manifest["differential"]
    return {
        "audit_overhead_pct": {
            "value": float(manifest["audit_overhead"]["overhead_pct"]),
            "better": "lower", "unit": "pct",
        },
        "byte_identical": {
            "value": bool(diff["byte_identical"]), "better": "exact",
        },
        "verify_ok": {
            "value": bool(diff["verify_ok"]), "better": "exact",
        },
    }


EXTRACTORS = {
    "audit": extract_audit,
    "engine": extract_engine,
    "local_step": extract_local_step,
    "parallel": extract_parallel,
    "perf": extract_perf,
    "population": extract_population,
    "service": extract_service,
    "sim": extract_sim,
}


def collect_current(bench_dir: Path = BENCH_DIR) -> dict[str, dict]:
    """Headline metrics per bench name, from the committed manifests."""
    current: dict[str, dict] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        extractor = EXTRACTORS.get(name)
        if extractor is None:
            # unknown manifests ride along untracked, but say so — a
            # silently-skipped bench reads as "covered" when it is not
            print(f"[collect] no extractor for {path.name}; skipping",
                  file=sys.stderr)
            continue
        manifest = json.loads(path.read_text())
        current[name] = extractor(manifest)
    return current


def load_trajectory(path: Path = TRAJECTORY) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"benches": {}}


def _mark_stale(rows: list[dict]) -> None:
    """Flag rows whose metrics are byte-copies of the previous row.

    Real benchmark reruns never reproduce timings float-for-float, so an
    exactly-equal metrics dict means the manifest was carried forward
    unchanged from the previous PR. The scan runs over the whole history
    on every record, so carry-forwards that predate this check are
    flagged retroactively.
    """
    for i, row in enumerate(rows):
        stale = i > 0 and row.get("metrics") == rows[i - 1].get("metrics")
        if stale:
            row["stale"] = True
        else:
            row.pop("stale", None)


def record(label: str, path: Path = TRAJECTORY,
           bench_dir: Path = BENCH_DIR) -> dict:
    """Fold the current headlines into the trajectory under ``label``."""
    traj = load_trajectory(path)
    benches = traj.setdefault("benches", {})
    for name, metrics in collect_current(bench_dir).items():
        rows = benches.setdefault(name, [])
        row = {"label": label, "metrics": metrics}
        for i, existing in enumerate(rows):
            if existing.get("label") == label:
                rows[i] = row
                break
        else:
            rows.append(row)
    for rows in benches.values():
        _mark_stale(rows)
    # write-to-temp-then-rename: a crash mid-record (or two concurrent
    # CI jobs) can never leave a truncated trajectory behind
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(traj, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return traj


def _allowed_delta(base: float, spec: dict, tolerance: float) -> float:
    slack = ABS_SLACK.get(spec.get("unit"), 0.0)
    return max(tolerance * abs(base), slack)


def check(tolerance: float = DEFAULT_TOLERANCE, path: Path = TRAJECTORY,
          bench_dir: Path = BENCH_DIR) -> list[str]:
    """Compare current headlines against the last recorded row.

    Returns a list of human-readable regression messages (empty = pass).
    """
    traj = load_trajectory(path)
    benches = traj.get("benches", {})
    problems: list[str] = []
    for name, metrics in collect_current(bench_dir).items():
        rows = benches.get(name)
        if not rows:
            problems.append(
                f"{name}: no recorded trajectory row "
                f"(run collect.py --record --label <PR>)"
            )
            continue
        # stale rows are carried-forward copies, not fresh measurements —
        # regress against the last row that was actually re-run
        baseline = next(
            (r for r in reversed(rows) if not r.get("stale")), rows[-1]
        )
        base_metrics = baseline.get("metrics", {})
        for metric, spec in metrics.items():
            base_spec = base_metrics.get(metric)
            if base_spec is None:
                continue  # metric is new in this PR; nothing to regress
            value, base = spec["value"], base_spec["value"]
            better = spec.get("better", "higher")
            if better == "none":
                continue  # informational metric: tracked, never gated
            if better == "exact":
                if value != base:
                    problems.append(
                        f"{name}.{metric}: {value!r} != recorded {base!r}"
                    )
                continue
            delta = _allowed_delta(base, spec, tolerance)
            if better == "higher" and value < base - delta:
                problems.append(
                    f"{name}.{metric}: {value:.4g} fell below recorded "
                    f"{base:.4g} (allowed slack {delta:.4g})"
                )
            elif better == "lower" and value > base + delta:
                problems.append(
                    f"{name}.{metric}: {value:.4g} rose above recorded "
                    f"{base:.4g} (allowed slack {delta:.4g})"
                )
    return problems


def show(path: Path = TRAJECTORY) -> list[str]:
    """Render the trajectory as per-bench metric tables."""
    traj = load_trajectory(path)
    lines: list[str] = []
    for name, rows in sorted(traj.get("benches", {}).items()):
        lines.append(f"=== {name}")
        for row in rows:
            parts = []
            for metric, spec in sorted(row.get("metrics", {}).items()):
                v = spec["value"]
                parts.append(
                    f"{metric}={v:.4g}" if isinstance(v, float)
                    else f"{metric}={v}"
                )
            if row.get("stale"):
                parts.append("[stale: carried forward]")
            lines.append(f"  {row.get('label', '?'):<8} " + "  ".join(parts))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record", action="store_true",
        help="fold current BENCH_*.json headlines into the trajectory",
    )
    parser.add_argument(
        "--label", default="",
        help="row label for --record (e.g. PR5); required with --record",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail if current headlines regressed vs the last row",
    )
    parser.add_argument(
        "--show", action="store_true", help="print the trajectory tables"
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative regression tolerance for --check (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not (args.record or args.check or args.show):
        parser.error("pass --record, --check, or --show")

    if args.record:
        if not args.label:
            parser.error("--record requires --label")
        record(args.label)
        print(f"[collect] recorded row {args.label!r} in {TRAJECTORY}")
    if args.check:
        problems = check(tolerance=args.tolerance)
        if problems:
            for p in problems:
                print(f"REGRESSION {p}", file=sys.stderr)
            return 1
        print("[collect] headline metrics within tolerance")
    if args.show:
        for line in show():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
