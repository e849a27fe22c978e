"""Round-engine benchmark: vectorized vs scalar FIFL kernels.

Times ``FIFLMechanism.process_round`` over synthetic rounds at several
federation sizes, once with the batched (N, D)-matrix engine and once
with the scalar reference loops, and reports per-phase wall-clock from
the telemetry module plus the speedup per phase. Also measures the
always-on telemetry overhead (default in-memory sink vs disabled hub)
and reports both wall-clock numbers; the run's result doubles as a
telemetry run manifest (config + seed + timings + speedups) emitted
through the active sinks.

CLI (no pytest needed)::

    python benchmarks/bench_engine.py            # N in {16, 64, 256}
    python benchmarks/bench_engine.py --quick    # smoke scale
    python benchmarks/bench_engine.py --json out.json
    python benchmarks/bench_engine.py --record   # benchmarks/BENCH_engine.json

Under pytest (``pytest benchmarks/bench_engine.py``) the quick
configuration runs as a regression guard: the vectorized engine must
beat the scalar one on the detection + contribution phases at N = 64.
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

from repro.core import make_mechanism
from repro.fl.gradients import split_gradient
from repro.fl.trainer import RoundContext
from repro.fl.workers import WorkerUpdate
from repro.parallel import blas_limits
from repro.telemetry import Telemetry, run_manifest, write_manifest

#: phases whose vectorization the tentpole targets
KERNEL_PHASES = ("fifl.detect", "fifl.contribution")

DEFAULT_SIZES = (16, 64, 256)
DEFAULT_DIM = 4096
DEFAULT_SERVERS = 4
DEFAULT_ROUNDS = 10


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
    updates: dict[int, WorkerUpdate] = {}
    slices: dict[int, dict[int, np.ndarray]] = {}
    uncertain_ids = set(range(num_servers, num_servers + uncertain))
    for wid in range(num_workers):
        # mostly honest-ish gradients plus a few deviating uploads, so
        # both accept and reject branches get exercised
        noise = rng.standard_normal(dim)
        grad = honest + 0.3 * noise if wid % 5 else -2.0 * honest + noise
        updates[wid] = WorkerUpdate(
            worker_id=wid, gradient=grad, num_samples=100
        )
        if wid in uncertain_ids:
            continue  # lost a slice: uncertain event, no delivery
        parts = split_gradient(grad, num_servers)
        slices[wid] = {srv: parts[j] for j, srv in enumerate(server_ranks)}
    return RoundContext(
        round_idx=round_idx,
        global_params=np.zeros(dim),
        server_ranks=server_ranks,
        slices=slices,
        updates=updates,
        uncertain=uncertain_ids,
        sample_counts={w: 100 for w in range(num_workers)},
    )


def time_engine(
    engine: str,
    num_workers: int,
    dim: int,
    num_servers: int,
    rounds: int,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> dict:
    """Run ``rounds`` synthetic rounds through one engine; per-phase seconds.

    ``telemetry`` overrides the per-run hub — the overhead check passes
    a disabled hub here to time the mechanism with instrumentation off.
    """
    profiler = telemetry if telemetry is not None else Telemetry()
    mech = make_mechanism(
        "fifl", threshold=0.0, gamma=0.2, engine=engine
    )
    mech.profiler = profiler
    contexts = [
        make_round(num_workers, dim, num_servers, t, seed=seed, uncertain=1)
        for t in range(rounds)
    ]
    # Warm up BLAS threads / allocator on a throwaway mechanism so the
    # first timed round isn't paying one-off setup costs.
    warm = make_mechanism("fifl", threshold=0.0, gamma=0.2, engine=engine)
    warm.profiler = Telemetry()
    warm.process_round(contexts[0])
    # pin the BLAS pool so a multi-threaded BLAS can't skew the
    # engine-vs-engine comparison machine by machine
    with blas_limits(1):
        t0 = time.perf_counter()
        for ctx in contexts:
            mech.process_round(ctx)
        total = time.perf_counter() - t0
    snap = profiler.snapshot()
    phases = {
        name: entry["seconds"] for name, entry in snap["timings"].items()
    }
    return {"total_s": total, "phases": phases}


def telemetry_overhead(
    num_workers: int,
    dim: int,
    num_servers: int,
    rounds: int,
    seed: int = 0,
    samples: int = 300,
) -> dict:
    """Wall-clock with the default in-memory sink vs telemetry disabled.

    The acceptance bar caps the always-on hot-path cost at 5%, a
    tens-of-microseconds question per round — far below cross-process
    (or even cross-second) timing drift on a shared machine. So this
    times individual rounds, strictly alternating an enabled-hub and a
    disabled-hub mechanism over the *same* prebuilt contexts so both
    sides sample identical scheduler/cache conditions, and compares the
    per-side minima over ``samples`` rounds — the minimum is the
    noise-free estimate of what one round costs. Telemetry defers event
    materialization to flush boundaries; the periodic ``flush()`` calls
    between timed rounds charge that deferred work outside the timed
    regions, so the number reported here is the per-round hot-path cost
    that round-loop callers actually see. ``enabled_s``/``disabled_s``
    are scaled to ``rounds`` rounds to match the engine timings above.
    """
    contexts = [
        make_round(num_workers, dim, num_servers, t, seed=seed, uncertain=1)
        for t in range(rounds)
    ]
    hubs = {"on": Telemetry(), "off": Telemetry(enabled=False)}
    mechs = {}
    for key, hub in hubs.items():
        mech = make_mechanism("fifl", threshold=0.0, gamma=0.2,
                              engine="vectorized")
        mech.profiler = hub
        mechs[key] = mech
    times: dict[str, list[float]] = {"on": [], "off": []}
    with blas_limits(1):
        for i in range(samples + 10):
            ctx = contexts[i % rounds]
            # alternate which side goes first so neither systematically
            # inherits the other's warm caches
            order = ("on", "off") if i % 2 else ("off", "on")
            for key in order:
                mech = mechs[key]
                t0 = time.perf_counter()
                mech.process_round(ctx)
                times[key].append(time.perf_counter() - t0)
            if i % 50 == 0:
                for hub in hubs.values():
                    hub.flush()

    def floor(vals: list[float], k: int = 20) -> float:
        # drop the first few samples (warm-up: BLAS threads, allocator,
        # code paths), then average the k fastest — timing noise is
        # one-sided additive, so the low tail estimates the true cost,
        # and averaging k of them is steadier than the raw minimum
        return sum(sorted(vals[10:])[:k]) / k

    enabled = floor(times["on"]) * rounds
    disabled = floor(times["off"]) * rounds
    return {
        "num_workers": num_workers,
        "enabled_s": enabled,
        "disabled_s": disabled,
        "overhead_pct": 100.0 * (enabled - disabled) / max(disabled, 1e-12),
    }


def monitor_overhead(
    num_workers: int,
    dim: int,
    num_servers: int,
    rounds: int,
    seed: int = 0,
    samples: int = 600,
) -> dict:
    """Wall-clock with a health monitor attached vs a bare enabled hub.

    Same alternating-rounds protocol as :func:`telemetry_overhead`, with
    two deliberate differences. First, the per-round ``flush()`` sits
    *inside* the timed region on both sides: the monitor's rule engine
    runs at flush boundaries (that is exactly where the trainer drives
    it), so that is where its cost must be charged — flushing outside
    the timer would measure an idle sink. Second, the overhead is the
    *median of paired per-iteration differences* (on minus off within
    the same alternating iteration) rather than a ratio of independent
    per-side floors: the true monitor cost is tens of microseconds per
    round, below the run-to-run jitter of two separately-estimated
    floors, and pairing cancels the drift both sides share. The
    synthetic rounds include deviating workers, so the margin rules
    genuinely fire (and latch) — the alert path is part of the measured
    cost, not just the silent fast path.
    """
    from repro.monitor import Monitor, MonitorConfig

    contexts = [
        make_round(num_workers, dim, num_servers, t, seed=seed, uncertain=1)
        for t in range(rounds)
    ]
    hubs = {"on": Telemetry(), "off": Telemetry()}
    Monitor(MonitorConfig()).install(hubs["on"])
    mechs = {}
    for key, hub in hubs.items():
        mech = make_mechanism("fifl", threshold=0.0, gamma=0.2,
                              engine="vectorized")
        mech.profiler = hub
        mechs[key] = mech
    times: dict[str, list[float]] = {"on": [], "off": []}
    with blas_limits(1):
        for i in range(samples + 10):
            ctx = contexts[i % rounds]
            order = ("on", "off") if i % 2 else ("off", "on")
            for key in order:
                mech = mechs[key]
                hub = hubs[key]
                t0 = time.perf_counter()
                mech.process_round(ctx)
                hub.flush()
                times[key].append(time.perf_counter() - t0)

    def floor(vals: list[float], k: int = 20) -> float:
        return sum(sorted(vals[10:])[:k]) / k

    deltas = sorted(
        on - off for on, off in zip(times["on"][10:], times["off"][10:])
    )
    mid = len(deltas) // 2
    delta = (
        deltas[mid] if len(deltas) % 2
        else 0.5 * (deltas[mid - 1] + deltas[mid])
    )
    per_round = floor(times["off"])
    disabled = per_round * rounds
    return {
        "num_workers": num_workers,
        "enabled_s": (per_round + delta) * rounds,
        "disabled_s": disabled,
        "overhead_pct": 100.0 * delta / max(per_round, 1e-12),
    }


def resource_overhead(
    num_workers: int,
    dim: int,
    num_servers: int,
    rounds: int,
    seed: int = 0,
    samples: int = 600,
) -> dict:
    """Per-round cost of one :meth:`ResourceProbe.sample`, vs the round.

    A probe sample is a deterministic constant cost — one ``pread`` of
    ``/proc/self/statm`` plus GC counter loads, single-digit µs — two
    orders of magnitude below the ±1% run-to-run jitter that paired
    wall-clock differencing carries on a shared machine, so the
    monitor/telemetry differencing protocol cannot resolve it. The
    sample call is therefore timed directly (median over ``samples``
    calls, GC callback attached so its bookkeeping is part of the
    context) and reported against the floor of the round time it rides
    on — exactly the one call the trainer adds at each round boundary.
    Acceptance bar: ≤ 1% of a round.
    """
    from repro.perf.resources import ResourceProbe

    contexts = [
        make_round(num_workers, dim, num_servers, t, seed=seed, uncertain=1)
        for t in range(rounds)
    ]
    mech = make_mechanism("fifl", threshold=0.0, gamma=0.2,
                          engine="vectorized")
    mech.profiler = Telemetry()
    round_times: list[float] = []
    sample_times: list[float] = []
    with ResourceProbe() as probe, blas_limits(1):
        for i in range(40):
            ctx = contexts[i % rounds]
            t0 = time.perf_counter()
            mech.process_round(ctx)
            round_times.append(time.perf_counter() - t0)
            probe.sample(i)
        for i in range(samples):
            t0 = time.perf_counter()
            probe.sample(i)
            sample_times.append(time.perf_counter() - t0)

    def floor(vals: list[float], k: int = 20) -> float:
        return sum(sorted(vals[10:])[:k]) / k

    ordered = sorted(sample_times)
    mid = len(ordered) // 2
    per_sample = (
        ordered[mid] if len(ordered) % 2
        else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    per_round = floor(round_times)
    return {
        "num_workers": num_workers,
        "enabled_s": (per_round + per_sample) * rounds,
        "disabled_s": per_round * rounds,
        "round_s": per_round,
        "sample_us": per_sample * 1e6,
        "overhead_pct": 100.0 * per_sample / max(per_round, 1e-12),
    }


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    dim: int = DEFAULT_DIM,
    num_servers: int = DEFAULT_SERVERS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
) -> dict:
    """Old-vs-new timings per federation size, with per-phase speedups."""
    by_size: dict[int, dict] = {}
    for n in sizes:
        scalar = time_engine("scalar", n, dim, num_servers, rounds, seed)
        vector = time_engine("vectorized", n, dim, num_servers, rounds, seed)
        kernel_scalar = sum(scalar["phases"].get(p, 0.0) for p in KERNEL_PHASES)
        kernel_vector = sum(vector["phases"].get(p, 0.0) for p in KERNEL_PHASES)
        by_size[n] = {
            "scalar": scalar,
            "vectorized": vector,
            "speedup_total": scalar["total_s"] / max(vector["total_s"], 1e-12),
            "speedup_kernels": kernel_scalar / max(kernel_vector, 1e-12),
        }
    overhead_n = max(sizes)
    return {
        "dim": dim,
        "num_servers": num_servers,
        "rounds": rounds,
        "seed": seed,
        "by_size": by_size,
        "telemetry_overhead": telemetry_overhead(
            overhead_n, dim, num_servers, rounds, seed
        ),
        "monitor_overhead": monitor_overhead(
            overhead_n, dim, num_servers, rounds, seed
        ),
        "resource_overhead": resource_overhead(
            overhead_n, dim, num_servers, rounds, seed
        ),
    }


def format_report(result: dict) -> list[str]:
    rows = [
        f"Round-engine benchmark (D={result['dim']}, "
        f"M={result['num_servers']}, {result['rounds']} rounds per timing)"
    ]
    rows.append(
        f"{'N':>5} {'scalar_s':>10} {'vector_s':>10} "
        f"{'speedup':>8} {'detect+contrib':>15}"
    )
    for n, r in result["by_size"].items():
        rows.append(
            f"{n:>5} {r['scalar']['total_s']:>10.4f} "
            f"{r['vectorized']['total_s']:>10.4f} "
            f"{r['speedup_total']:>7.1f}x {r['speedup_kernels']:>14.1f}x"
        )
    for n, r in result["by_size"].items():
        rows.append(f"  per-phase seconds at N={n}:")
        for name in sorted(set(r["scalar"]["phases"]) | set(r["vectorized"]["phases"])):
            s = r["scalar"]["phases"].get(name, 0.0)
            v = r["vectorized"]["phases"].get(name, 0.0)
            rows.append(f"    {name:<20} scalar={s:.4f}  vectorized={v:.4f}")
    ov = result.get("telemetry_overhead")
    if ov:
        rows.append(
            f"telemetry overhead at N={ov['num_workers']} (in-memory sink vs "
            f"disabled): on={ov['enabled_s']:.4f}s off={ov['disabled_s']:.4f}s "
            f"({ov['overhead_pct']:+.1f}%)"
        )
    mv = result.get("monitor_overhead")
    if mv:
        rows.append(
            f"monitor overhead at N={mv['num_workers']} (rule engine vs bare "
            f"hub): on={mv['enabled_s']:.4f}s off={mv['disabled_s']:.4f}s "
            f"({mv['overhead_pct']:+.1f}%)"
        )
    rv = result.get("resource_overhead")
    if rv:
        rows.append(
            f"resource-probe overhead at N={rv['num_workers']} (one sample "
            f"per round boundary): {rv['sample_us']:.2f}us/sample on a "
            f"{rv['round_s'] * 1e3:.1f}ms round floor "
            f"({rv['overhead_pct']:+.2f}%)"
        )
    return rows


def bench_engine_speedup(benchmark):
    """Pytest entry: the batched kernels must beat the scalar loops."""
    result = benchmark.pedantic(
        run_benchmark,
        kwargs=dict(sizes=(64,), dim=2048, rounds=5),
        iterations=1, rounds=1, warmup_rounds=0,
    )
    for row in format_report(result):
        print(row)
    assert result["by_size"][64]["speedup_kernels"] > 3.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke scale (small sizes/dim, fewer rounds)",
    )
    parser.add_argument(
        "--sizes", default="",
        help="comma-separated federation sizes (default 16,64,256)",
    )
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--servers", type=int, default=DEFAULT_SERVERS)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the manifest to benchmarks/BENCH_engine.json",
    )
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip()) or (
        (16, 64) if args.quick else DEFAULT_SIZES
    )
    dim = min(args.dim, 1024) if args.quick else args.dim
    rounds = min(args.rounds, 3) if args.quick else args.rounds

    result = run_benchmark(
        sizes=sizes, dim=dim, num_servers=args.servers, rounds=rounds
    )
    for row in format_report(result):
        print(row)
    # The result is also a run manifest: emitting it routes the record
    # through whatever telemetry sinks are active (memory/JSONL/console).
    run_manifest(
        "bench_engine",
        config={
            "sizes": list(sizes), "dim": dim, "num_servers": args.servers,
            "rounds": rounds, "seed": 0, "quick": args.quick,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_engine.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
