"""Audit-layer benchmark: attribution payload cost + differential contract.

Two questions, one artifact:

1. **Differential contract** — on a seeded synthetic run, the decision
   lineage reconstructed *offline* from the telemetry trace must be
   byte-for-byte identical to the lineage folded *live* from the
   mechanism's round records, and ``repro.audit.verify_trace`` must
   pass every trace-level check. This is the correctness claim of the
   audit layer, timed end to end.
2. **Emission overhead** — the full attribution payload (reputations,
   contributions, shares, b_h) rides on every ``fifl.round`` event when
   ``FIFLConfig.audit`` is on (the default). The A/B here times
   audit-on vs audit-off mechanisms over identical prebuilt rounds with
   the hub ``flush()`` *inside* the timed region — event
   materialization is deferred to flush boundaries, so that is where
   the payload cost lands. Acceptance bar: ≤ 1% of a round at N = 256.

The rounds alternate on/off in ``PAIRS`` consecutive blocks. Within a
block the overhead is the median per-iteration (on − off) difference
over the median off round, which cancels the drift both sides share —
the payload cost is tens of microseconds, below the jitter of two
independently-estimated floors. The gate reads the median over the
blocks, so one block hit by host load cannot fail it; the report prints
the blocks' spread beside it.

CLI (no pytest needed)::

    python benchmarks/bench_audit.py             # N = 256, D = 4096
    python benchmarks/bench_audit.py --quick     # smoke scale
    python benchmarks/bench_audit.py --json out.json
    python benchmarks/bench_audit.py --record    # benchmarks/BENCH_audit.json

Exits non-zero when the differential breaks or the overhead gate fails,
so CI can use the quick run as a regression guard directly.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.audit import (
    collect_decisions,
    decisions_from_trace,
    encode_decision,
    verify_trace,
)
from repro.core import make_mechanism
from repro.fl.fleet_compute import LocalUpdates
from repro.fl.trainer import RoundContext
from repro.parallel import blas_limits
from repro.telemetry import MemorySink, Telemetry, run_manifest, write_manifest

DEFAULT_WORKERS = 256
DEFAULT_DIM = 4096
DEFAULT_SERVERS = 4
DEFAULT_ROUNDS = 10
#: acceptance bar: audit payload emission ≤ this percent of a round
MAX_OVERHEAD_PCT = 1.0
#: interleaved on/off blocks the overhead is measured in; the gate reads
#: their median
PAIRS = 7


def make_round(
    num_workers: int,
    dim: int,
    num_servers: int,
    round_idx: int,
    seed: int = 0,
    uncertain: int = 0,
) -> RoundContext:
    """One synthetic communication round (servers are workers 0..M-1)."""
    rng = np.random.default_rng(seed * 7919 + round_idx)
    server_ranks = list(range(num_servers))
    honest = rng.standard_normal(dim)
    grads = np.empty((num_workers, dim))
    for wid in range(num_workers):
        noise = rng.standard_normal(dim)
        grads[wid] = honest + 0.3 * noise if wid % 5 else -2.0 * honest + noise
    grads.flags.writeable = False
    ids = np.arange(num_workers, dtype=np.int64)
    counts = np.full(num_workers, 100, dtype=np.int64)
    # these workers lost a slice: uncertain events, no upload row
    uncertain_ids = set(range(num_servers, num_servers + uncertain))
    local = LocalUpdates(
        worker_ids=ids,
        gradients=grads,
        sample_counts=counts,
        attacked=np.zeros(num_workers, dtype=bool),
    )
    complete = ~np.isin(ids, sorted(uncertain_ids))
    return RoundContext.admit(
        round_idx, np.zeros(dim), server_ranks, local, complete
    )


def differential(
    num_workers: int,
    dim: int,
    num_servers: int,
    rounds: int,
    seed: int = 0,
) -> dict:
    """Live-vs-offline lineage byte-identity on one seeded run.

    Drives a real mechanism through ``rounds`` synthetic rounds with a
    memory sink attached, then reconstructs the decision lineage from
    the captured events alone and compares every decision's canonical
    encoding against the live fold over the mechanism's records.
    """
    sink = MemorySink(maxlen=None)
    hub = Telemetry(sinks=[sink])
    mech = make_mechanism("fifl", threshold=0.0, gamma=0.2)
    mech.profiler = hub
    t0 = time.perf_counter()
    for t in range(rounds):
        mech.process_round(
            make_round(num_workers, dim, num_servers, t, seed=seed,
                       uncertain=1)
        )
    run_s = time.perf_counter() - t0
    hub.flush()
    events = list(sink.events)

    t0 = time.perf_counter()
    offline = decisions_from_trace(events)
    reconstruct_s = time.perf_counter() - t0
    live = collect_decisions(mech)
    identical = len(live) == len(offline) and all(
        encode_decision(a) == encode_decision(b)
        for a, b in zip(live, offline)
    )
    report = verify_trace(events)
    return {
        "rounds": rounds,
        "decisions": len(offline),
        "byte_identical": identical,
        "verify_ok": report.ok,
        "verify_failures": [c.name for c in report.failures()],
        "run_s": run_s,
        "reconstruct_s": reconstruct_s,
    }


def audit_overhead(
    num_workers: int,
    dim: int,
    num_servers: int,
    rounds: int,
    seed: int = 0,
    samples: int = 300,
) -> dict:
    """Per-round cost of the attribution payload, audit-on vs audit-off.

    Both sides run a full enabled hub; only ``FIFLConfig.audit``
    differs. The per-round ``flush()`` sits inside the timed region on
    both sides because event materialization (where the payload dicts
    are built) is deferred to flush boundaries. ``samples`` alternating
    iterations are cut into ``PAIRS`` blocks, one overhead per block.
    """
    per_pair = max(samples // PAIRS, 2)
    contexts = [
        make_round(num_workers, dim, num_servers, t, seed=seed, uncertain=1)
        for t in range(rounds)
    ]
    hubs = {"on": Telemetry(), "off": Telemetry()}
    mechs = {}
    for key, hub in hubs.items():
        mech = make_mechanism("fifl", threshold=0.0, gamma=0.2,
                              audit=(key == "on"))
        mech.profiler = hub
        mechs[key] = mech
    times: dict[str, list[float]] = {"on": [], "off": []}
    with blas_limits(1):
        for i in range(PAIRS * per_pair + 10):
            ctx = contexts[i % rounds]
            order = ("on", "off") if i % 2 else ("off", "on")
            for key in order:
                mech = mechs[key]
                hub = hubs[key]
                t0 = time.perf_counter()
                mech.process_round(ctx)
                hub.flush()
                times[key].append(time.perf_counter() - t0)

    on = np.reshape(times["on"][10:], (PAIRS, per_pair))
    off = np.reshape(times["off"][10:], (PAIRS, per_pair))
    pair_pcts = 100.0 * np.median(on - off, axis=1) / np.median(off, axis=1)
    per_round = float(np.median(off))
    overhead_pct = float(np.median(pair_pcts))
    return {
        "num_workers": num_workers,
        "enabled_s": per_round * (1.0 + overhead_pct / 100.0) * rounds,
        "disabled_s": per_round * rounds,
        "overhead_pct": overhead_pct,
        "pair_pcts": pair_pcts.tolist(),
    }


def run_benchmark(
    num_workers: int = DEFAULT_WORKERS,
    dim: int = DEFAULT_DIM,
    num_servers: int = DEFAULT_SERVERS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
    samples: int = 300,
) -> dict:
    diff = differential(
        min(num_workers, 64), dim, num_servers, rounds, seed
    )
    overhead = audit_overhead(
        num_workers, dim, num_servers, rounds, seed, samples=samples
    )
    return {
        "num_workers": num_workers,
        "dim": dim,
        "num_servers": num_servers,
        "rounds": rounds,
        "seed": seed,
        "differential": diff,
        "audit_overhead": overhead,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "gate_ok": bool(
            diff["byte_identical"]
            and diff["verify_ok"]
            and overhead["overhead_pct"] <= MAX_OVERHEAD_PCT
        ),
    }


def format_report(result: dict) -> list[str]:
    diff = result["differential"]
    ov = result["audit_overhead"]
    rows = [
        f"Audit-layer benchmark (N={result['num_workers']}, "
        f"D={result['dim']}, M={result['num_servers']}, "
        f"{result['rounds']} rounds)",
        f"differential: {diff['decisions']} decisions over "
        f"{diff['rounds']} rounds, byte_identical={diff['byte_identical']}, "
        f"verify_ok={diff['verify_ok']} "
        f"(run={diff['run_s']:.4f}s reconstruct={diff['reconstruct_s']:.4f}s)",
        f"audit payload overhead at N={ov['num_workers']} (audit=True vs "
        f"audit=False, flush in-region): on={ov['enabled_s']:.4f}s "
        f"off={ov['disabled_s']:.4f}s ({ov['overhead_pct']:+.2f}% median "
        f"of {len(ov['pair_pcts'])} pairs, spread "
        f"{min(ov['pair_pcts']):+.2f}%..{max(ov['pair_pcts']):+.2f}%, "
        f"bar {result['max_overhead_pct']:.0f}%)",
        f"gate: {'ok' if result['gate_ok'] else 'FAILED'}",
    ]
    if diff["verify_failures"]:
        rows.insert(2, f"  verify failures: {diff['verify_failures']}")
    return rows


def bench_audit_contract(benchmark):
    """Pytest entry: lineage byte-identity must hold at smoke scale."""
    result = benchmark.pedantic(
        run_benchmark,
        kwargs=dict(num_workers=64, dim=1024, rounds=5, samples=60),
        iterations=1, rounds=1, warmup_rounds=0,
    )
    for row in format_report(result):
        print(row)
    assert result["differential"]["byte_identical"]
    assert result["differential"]["verify_ok"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke scale (smaller dim, fewer paired samples)",
    )
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--servers", type=int, default=DEFAULT_SERVERS)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the manifest to benchmarks/BENCH_audit.json",
    )
    args = parser.parse_args(argv)

    dim = min(args.dim, 1024) if args.quick else args.dim
    rounds = min(args.rounds, 5) if args.quick else args.rounds
    samples = 100 if args.quick else 300

    result = run_benchmark(
        num_workers=args.workers, dim=dim, num_servers=args.servers,
        rounds=rounds, samples=samples,
    )
    for row in format_report(result):
        print(row)
    run_manifest(
        "bench_audit",
        config={
            "num_workers": args.workers, "dim": dim,
            "num_servers": args.servers, "rounds": rounds,
            "samples": samples, "seed": 0, "quick": args.quick,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_audit.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0 if result["gate_ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
