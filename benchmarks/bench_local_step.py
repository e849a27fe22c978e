"""Local-step benchmark: fleet-batched local training.

Times the ``trainer.local_compute`` phase of :class:`FederatedTrainer`
on the fig09-style MLP federation (synthetic blobs, 16 features, 4
classes, one hidden layer of 64) at several federation sizes — all
workers' SGD stacked into single batched kernels, see
``repro.nn.fleet`` — and reports per-phase wall-clock from the
telemetry hub.

Also reports the evaluation throughput of ``repro.fl.evaluation`` (the
preallocated-scratch batched evaluator) in samples/second, and the
always-on telemetry overhead (default in-memory sink vs disabled hub)
over whole federated rounds; the run's result doubles as a telemetry
run manifest emitted through the active sinks.

CLI (no pytest needed)::

    python benchmarks/bench_local_step.py            # N in {16, 64}
    python benchmarks/bench_local_step.py --quick    # smoke scale + diff check
    python benchmarks/bench_local_step.py --json out.json
    python benchmarks/bench_local_step.py --record   # benchmarks/BENCH_local_step.json

Agreement with each worker running its own ``compute_update`` (to
<= 1e-8 over full training histories) is a differential test in
``tests/fl/test_fleet_compute.py``, not part of this timing script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker, evaluate
from repro.nn import build_mlp
from repro.parallel import blas_limits
from repro.population import WorkerPopulation
from repro.telemetry import Telemetry, run_manifest, write_manifest

#: the phase whose fleet-batching the tentpole targets
LOCAL_PHASE = "trainer.local_compute"
#: fleet sub-phases reported in the per-phase breakdown
FLEET_PHASES = (
    "fleet.load",
    "fleet.sample",
    "fleet.forward",
    "fleet.backward",
    "fleet.step",
    "fleet.finalize",
)

DEFAULT_SIZES = (16, 64)
DEFAULT_ROUNDS = 20
N_FEATURES, N_CLASSES, HIDDEN = 16, 4, (64,)
SAMPLES_PER_WORKER, BATCH_SIZE, LOCAL_ITERS = 100, 8, 1


def make_trainer(
    num_workers: int,
    seed: int = 0,
    n_attackers: int = 2,
    telemetry: Telemetry | None = None,
) -> FederatedTrainer:
    """Fig09-style MLP federation: blobs data, mostly honest workers.

    The last ``n_attackers`` ranks are sign-flippers so the benchmark
    exercises the post-hoc ``finalize_update`` path, not just the honest
    fast path. ``telemetry`` overrides the per-run hub — the overhead
    check passes a disabled hub here to time rounds with
    instrumentation off.
    """
    total = num_workers * SAMPLES_PER_WORKER + 400
    data = make_blobs(
        n_samples=total, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )
    train, test = train_test_split(data, 400 / len(data), seed=seed)
    shards = iid_partition(train, num_workers, seed=seed)

    def model_fn():
        return build_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=seed)

    workers = []
    for wid in range(num_workers):
        cls = SignFlippingWorker if wid >= num_workers - n_attackers else HonestWorker
        kwargs = {"p_s": 4.0} if cls is SignFlippingWorker else {}
        workers.append(
            cls(
                wid,
                shards[wid],
                model_fn,
                lr=0.05,
                batch_size=BATCH_SIZE,
                local_iters=LOCAL_ITERS,
                seed=seed + 1000 + wid,
                **kwargs,
            )
        )
    trainer = FederatedTrainer(
        model_fn(),
        population=WorkerPopulation.from_workers(workers),
        server_ranks=[0, 1],
        test_data=test,
        server_lr=0.05,
        seed=seed,
    )
    # isolate timings from the global profiler
    trainer.profiler = telemetry if telemetry is not None else Telemetry()
    return trainer


def time_engine(
    num_workers: int, rounds: int, seed: int = 0, repeats: int = 2
) -> dict:
    """Run ``rounds`` federated rounds; per-phase seconds.

    Takes the best of ``repeats`` timed runs (fresh federation each) —
    the min filters scheduler noise.
    """
    # Warm up BLAS threads / allocator on a throwaway federation so the
    # first timed run isn't paying one-off setup costs.
    warm = make_trainer(num_workers, seed=seed + 77)
    warm.run(1, eval_every=1)
    best: dict | None = None
    for _ in range(repeats):
        trainer = make_trainer(num_workers, seed=seed)
        # pin the BLAS pool so a multi-threaded BLAS can't skew timings
        # machine by machine
        with blas_limits(1):
            t0 = time.perf_counter()
            history = trainer.run(rounds, eval_every=rounds)
            total = time.perf_counter() - t0
        phases = {
            name: entry["seconds"]
            for name, entry in history.profile["timings"].items()
        }
        run = {
            "total_s": total,
            "local_s": phases.get(LOCAL_PHASE, 0.0),
            "phases": phases,
        }
        if best is None or run["local_s"] < best["local_s"]:
            best = run
    return best


def eval_throughput(n_samples: int = 4096, repeats: int = 5, seed: int = 0) -> dict:
    """Throughput of the batched evaluator in samples/second."""
    data = make_blobs(
        n_samples=n_samples, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )
    model = build_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=seed)
    evaluate(model, data)  # warm-up
    with blas_limits(1):
        t0 = time.perf_counter()
        for _ in range(repeats):
            evaluate(model, data)
        elapsed = time.perf_counter() - t0
    return {
        "samples": n_samples,
        "repeats": repeats,
        "seconds": elapsed,
        "samples_per_s": n_samples * repeats / max(elapsed, 1e-12),
    }


def telemetry_overhead(
    num_workers: int, rounds: int, seed: int = 0, samples: int = 120
) -> dict:
    """Wall-clock per federated round: in-memory sink vs telemetry disabled.

    Same protocol as ``bench_engine.telemetry_overhead``: two identical
    fleet-engine federations (one enabled hub, one disabled), strictly
    alternating individually timed ``run_round`` calls so both sides
    sample the same scheduler/cache conditions, compared on the average
    of the k fastest rounds — timing noise is one-sided additive, so the
    low tail estimates the true per-round cost. Telemetry defers event
    materialization to flush boundaries; the periodic ``flush()`` calls
    between timed rounds charge that deferred work outside the timed
    regions. ``enabled_s``/``disabled_s`` are scaled to ``rounds``
    rounds to match the engine timings above.
    """
    hubs = {"on": Telemetry(), "off": Telemetry(enabled=False)}
    trainers = {
        key: make_trainer(num_workers, seed=seed, telemetry=hub)
        for key, hub in hubs.items()
    }
    times: dict[str, list[float]] = {"on": [], "off": []}
    with blas_limits(1):
        for i in range(samples + 5):
            order = ("on", "off") if i % 2 else ("off", "on")
            for key in order:
                trainer = trainers[key]
                t0 = time.perf_counter()
                trainer.run_round(i)
                times[key].append(time.perf_counter() - t0)
            if i % 25 == 0:
                for hub in hubs.values():
                    hub.flush()

    def floor(vals: list[float], k: int = 10) -> float:
        # drop warm-up samples, then average the k fastest
        return sum(sorted(vals[5:])[:k]) / k

    enabled = floor(times["on"]) * rounds
    disabled = floor(times["off"]) * rounds
    return {
        "num_workers": num_workers,
        "enabled_s": enabled,
        "disabled_s": disabled,
        "overhead_pct": 100.0 * (enabled - disabled) / max(disabled, 1e-12),
    }


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
) -> dict:
    """Local-step timings per federation size."""
    by_size = {n: time_engine(n, rounds, seed) for n in sizes}
    return {
        "model": f"mlp{list(HIDDEN)}",
        "n_features": N_FEATURES,
        "n_classes": N_CLASSES,
        "batch_size": BATCH_SIZE,
        "local_iters": LOCAL_ITERS,
        "rounds": rounds,
        "by_size": by_size,
        "evaluation": eval_throughput(seed=seed),
        "telemetry_overhead": telemetry_overhead(max(sizes), rounds, seed),
    }


def format_report(result: dict) -> list[str]:
    rows = [
        f"Local-step benchmark ({result['model']}, B={result['batch_size']}, "
        f"{result['rounds']} rounds per timing)"
    ]
    rows.append(f"{'N':>5} {'local_s':>10} {'total_s':>10}")
    for n, r in result["by_size"].items():
        rows.append(f"{n:>5} {r['local_s']:>10.4f} {r['total_s']:>10.4f}")
    for n, r in result["by_size"].items():
        rows.append(f"  fleet per-phase seconds at N={n}:")
        for name in FLEET_PHASES:
            if name in r["phases"]:
                rows.append(f"    {name:<16} {r['phases'][name]:.4f}")
    ev = result["evaluation"]
    rows.append(
        f"evaluation throughput: {ev['samples_per_s']:,.0f} samples/s "
        f"({ev['samples']} samples x {ev['repeats']} passes in {ev['seconds']:.4f}s)"
    )
    ov = result.get("telemetry_overhead")
    if ov:
        rows.append(
            f"telemetry overhead at N={ov['num_workers']} (in-memory sink vs "
            f"disabled): on={ov['enabled_s']:.4f}s off={ov['disabled_s']:.4f}s "
            f"({ov['overhead_pct']:+.1f}%)"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke scale (fewer rounds)",
    )
    parser.add_argument(
        "--sizes", default="",
        help="comma-separated federation sizes (default 16,64)",
    )
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the result to benchmarks/BENCH_local_step.json",
    )
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip()) or DEFAULT_SIZES
    rounds = min(args.rounds, 3) if args.quick else args.rounds

    result = run_benchmark(sizes=sizes, rounds=rounds)
    for row in format_report(result):
        print(row)
    # The result is also a run manifest: emitting it routes the record
    # through whatever telemetry sinks are active (memory/JSONL/console).
    run_manifest(
        "bench_local_step",
        config={
            "sizes": list(sizes), "rounds": rounds, "seed": 0,
            "quick": args.quick,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_local_step.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
