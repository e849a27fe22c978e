"""Layered round benchmark for the FIFL federation.

Run from the root of the repository::

    python3 perfbench/run.py --workload silo256 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper in place.
``--trace 1`` alternates untraced episodes with traced ones, in which every
layer's public entry points are wrapped (see ``spans.py``), and reports
per-layer self times, the trace coverage and the tracing overhead.

Each run warms up with one untimed episode, which is also the same-seed
reference every later episode must reproduce, then repeats fixed-size
episodes for ``--seconds`` seconds and reports, per metric, the fast
5th percentile of short samples pooled over them (see ``end_to_end``). A host
fingerprint and a host-noise reading (a fixed reference loop timed
before and after the workload) are printed beside the metrics. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: BLAS and OpenMP pools are pinned to one thread in the benchmark process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: timed episodes a run makes even when ``--seconds`` runs out sooner
MIN_EPISODES = 3
#: traced layer coverage must be within this share of the traced wall
COVERAGE_TOLERANCE = 0.05
WORKLOAD_NAMES = ("silo256", "device1m", "service16")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def end_to_end(episodes) -> dict[str, float]:
    """The end-to-end metrics over the run's timed episodes.

    Set-up time is the median over every build of the run. The others
    pool short samples from every episode (windows of a fixed number of
    rounds, single audit passes) and take their 5th percentile on the
    fast side: on a shared host, slowdowns only ever lengthen a sample
    and cover from a few seconds to most of a run, so the fast end tracks
    the program while the median tracks how much of the run the host was
    busy.
    """
    from stats import fast_percentile, median

    windows = [w for ep in episodes for w in ep.windows()]
    return {
        "setup_s": median(s for ep in episodes for s in ep.setup_s),
        "rounds_per_s": fast_percentile([rate for rate, _ in windows],
                                        higher_is_better=True),
        "round_p50_ms": fast_percentile([p50 for _, p50 in windows]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "audit_verify_s": fast_percentile([s for ep in episodes for s in ep.audit_s]),
    }


def per_layer(tracer, traced, untraced) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the traced episodes, plus the coverage report."""
    from stats import median
    from spans import layer_metrics

    agg = layer_metrics(tracer.names, tracer.arrays(), tracer.checkout_ids)
    m = agg["metrics"]
    total = {k: sum(ep.counts.get(k, 0) for ep in traced) for k in traced[0].counts}
    rounds = total["rounds"]
    m.update({
        "comm.bytes": total["net_bytes"] / rounds,
        "comm.delivered_share": total["net_delivered"] / max(total["net_sent"], 1),
        "comm.undelivered_msgs": (total["net_sent"] - total["net_delivered"]
                                  - total["net_dropped"]) / len(traced),
        "core.workers_scored": total["workers_scored"] / rounds,
        "sim.events": total.get("sim_events", 0) / rounds,
        "sim.retries": total.get("sim_retries", 0) / rounds,
        "service.snapshot_bytes": total["snapshot_bytes"] / len(traced),
        "telemetry.events": total["telemetry_events"] / rounds,
        "telemetry.trace_bytes": total.get("trace_bytes", 0) / rounds,
        "audit.events": total["audit_events"] / len(traced),
        "gc.gen2_count": tracer.gen2_count / rounds,
        "gc.gen2_pause_ms": tracer.gen2_pause_s * 1e3 / rounds,
        # RSS from the untraced episodes: the span arrays grow the heap
        "rss.growth_kb_per_round": median(
            ep.counts["rss_growth_bytes"] / 1024 / ep.counts["rounds"]
            for ep in untraced),
    })
    return m, agg


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(HERE)]

    import host
    import spans
    from stats import Checks, median, percentile, tail_percentile
    from workloads import WORKLOADS

    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    print(json.dumps({"fingerprint": host.fingerprint(args.seed),
                      "workload": args.workload, "trace": args.trace}))
    noise_before = host.reference_slices()

    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()
    checks = Checks()
    attempted = failed = 0

    def account(ep) -> None:
        nonlocal attempted
        attempted += ep.counts["rounds"] + len(ep.checkpoint_ms) + ep.counts["audit_checks"]
        checks.extend(ep.checks)

    reference = wl.episode()
    account(reference)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline
           or len(untraced) + len(traced) < MIN_EPISODES
           or (args.trace and not traced)):
        use_trace = bool(args.trace) and len(untraced) > len(traced)
        try:
            if use_trace:
                with spans.installed(tracer):
                    ep = wl.episode(tracer)
            else:
                left = spans.installed_sites()
                checks.add("no-wrappers", not left, f"wrappers left in place: {left}")
                ep = wl.episode()
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        account(ep)
        checks.add("same-seed-digest", ep.digest == reference.digest,
                   f"episode digest {ep.digest[:16]} != reference {reference.digest[:16]}")
        (traced if use_trace else untraced).append(ep)
    noise_after = host.reference_slices()

    if not untraced or (args.trace and not traced):
        print("perfbench: no episode completed", file=sys.stderr)
        return 1
    attempted += checks.attempted
    failed += checks.failed
    for line in checks.failures():
        print(f"FAILED {line}")

    e2e = end_to_end(untraced)
    print(f"noise ms/slice: before median {_format(median(noise_before))} max "
          f"{_format(max(noise_before))}; after median {_format(median(noise_after))} "
          f"max {_format(max(noise_after))}")
    print(f"episodes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(untraced[0].round_ms) + 1} rounds each")
    for name, value in e2e.items():
        print(f"  {name:<20} {_format(value):>12}")
    pooled = [ms for ep in untraced for ms in ep.round_ms]
    q = tail_percentile(len(pooled))
    print(f"round latency over {len(pooled)} rounds: p50 "
          f"{_format(percentile(pooled, 50))} ms, p{q:.4g} "
          f"{_format(percentile(pooled, q))} ms (host bursts move tails; "
          f"not a metric)")
    saves = [ms for ep in untraced for ms in ep.checkpoint_ms]
    print(f"checkpoint stall over {len(saves)} saves: p10 "
          f"{_format(percentile(saves, 10))} ms, p50 {_format(percentile(saves, 50))} ms "
          f"(fsync-bound and too noisy on a shared disk; not a metric)")

    if args.trace:
        values, agg = per_layer(tracer, traced, untraced)
        traced_p50 = end_to_end(traced)["round_p50_ms"]
        overhead = traced_p50 - e2e["round_p50_ms"]
        share = agg["covered_ms"] / agg["wall_ms"]
        covered_ok = abs(share - 1.0) <= COVERAGE_TOLERANCE
        attempted += 1
        failed += not covered_ok
        print(f"trace: {len(tracer)} spans over {agg['rounds']} rounds, "
              f"{agg['checkpoints']} checkpoints, {agg['audits']} audits")
        print(f"trace coverage: layers {_format(agg['covered_ms'])} ms of "
              f"{_format(agg['wall_ms'])} ms per round ({share:.1%}; "
              f"{_format(agg['between_ms'])} ms outside every wrapper) "
              f"{'ok' if covered_ok else 'FAILED'}")
        print(f"tracing overhead: round_p50_ms {_format(traced_p50)} traced - "
              f"{_format(e2e['round_p50_ms'])} untraced = {_format(overhead)} ms")
        layers = sorted(((v, k) for k, v in values.items()
                         if k in spans.ROUND_LAYER_METRICS), reverse=True)
        print("per-round self time, largest first: "
              + ", ".join(f"{k} {_format(v)}" for v, k in layers[:6]))
        for name in sorted(values):
            print(f"  {name:<28} {_format(values[name]):>12}")
        tracer.save(workdir / f"spans-{args.workload}-seed{args.seed}.npz")
        listed = spec["per_layer"]
    else:
        values = e2e
        listed = spec["end_to_end"]

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
