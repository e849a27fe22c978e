"""Simulation-kernel benchmark: event-scheduled rounds vs the direct loop.

The discrete-event kernel promises a free lunch: fault scenarios when
you want them, and a zero-fault fast path that costs (almost) nothing
when you don't. This benchmark prices that promise. It builds two
identical federations — one trainer on the direct (instantaneous)
upload loop, one on the null :class:`~repro.sim.FaultScenario` — and
times whole communication rounds strictly interleaved, comparing the
floor-averaged per-round cost. The two trainers stay bit-identical
round for round (checked here every run), so both sides time exactly
the same numerical work; the difference is pure scheduler overhead.

Acceptance bar: the null-scenario path within 5% of the direct loop.

CLI (no pytest needed)::

    python benchmarks/bench_sim.py             # N=16, 60 timed rounds
    python benchmarks/bench_sim.py --quick     # smoke scale
    python benchmarks/bench_sim.py --json out.json
    python benchmarks/bench_sim.py --record    # benchmarks/BENCH_sim.json

Under pytest (``pytest benchmarks/bench_sim.py``) the quick scale runs
as a regression guard on both the 5% bar and the differential.
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

from repro.datasets import iid_partition, make_blobs
from repro.fl import FederatedTrainer, HonestWorker
from repro.nn import build_logreg
from repro.parallel import blas_limits
from repro.population import WorkerPopulation
from repro.sim import FaultScenario
from repro.telemetry import run_manifest, write_manifest

DEFAULT_WORKERS = 16
DEFAULT_FEATURES = 64
DEFAULT_CLASSES = 10
DEFAULT_ROUNDS = 60
WARMUP_ROUNDS = 10
FLOOR_K = 20


def build_trainer(
    scenario: FaultScenario | None,
    num_workers: int,
    n_features: int,
    n_classes: int,
    seed: int = 0,
) -> FederatedTrainer:
    data = make_blobs(
        n_samples=num_workers * 100,
        n_features=n_features,
        num_classes=n_classes,
        seed=seed,
    )
    shards = iid_partition(data, num_workers, seed=seed)
    model_fn = lambda: build_logreg(n_features, n_classes, seed=seed)
    workers = [
        HonestWorker(
            i, shards[i], model_fn, lr=0.1, local_iters=2, seed=seed + 100 + i
        )
        for i in range(num_workers)
    ]
    # no test_data: evaluation off, so the timing is the round loop itself
    return FederatedTrainer(
        model_fn(), WorkerPopulation.from_workers(workers), [0, 1], drop_prob=0.05,
        seed=seed, scenario=scenario,
    )


def run_benchmark(
    num_workers: int = DEFAULT_WORKERS,
    n_features: int = DEFAULT_FEATURES,
    n_classes: int = DEFAULT_CLASSES,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
) -> dict:
    """Interleaved per-round timings, a floor-averaged overhead figure,
    and the always-on differential check."""
    trainers = {
        "direct": build_trainer(None, num_workers, n_features, n_classes, seed),
        "sim": build_trainer(
            FaultScenario.none(), num_workers, n_features, n_classes, seed
        ),
    }
    times: dict[str, list[float]] = {"direct": [], "sim": []}
    identical = True
    # pin the BLAS pool so a multi-threaded BLAS can't skew the
    # direct-vs-sim comparison machine by machine
    with blas_limits(1):
        for t in range(rounds + WARMUP_ROUNDS):
            # alternate which side goes first so neither systematically
            # inherits the other's warm caches
            order = ("direct", "sim") if t % 2 else ("sim", "direct")
            records = {}
            for key in order:
                trainer = trainers[key]
                t0 = time.perf_counter()
                records[key] = trainer.run_round(t)
                times[key].append(time.perf_counter() - t0)
            identical = identical and (
                records["direct"].accepted == records["sim"].accepted
                and records["direct"].uncertain == records["sim"].uncertain
            )
    identical = identical and (
        trainers["direct"].model.get_flat_params().tobytes()
        == trainers["sim"].model.get_flat_params().tobytes()
    )

    def floor(vals: list[float], k: int = FLOOR_K) -> float:
        # drop warm-up rounds, then average the k fastest — timing noise
        # is one-sided additive, so the low tail estimates the true cost
        tail = sorted(vals[WARMUP_ROUNDS:])
        k = min(k, len(tail))
        return sum(tail[:k]) / k

    direct_s = floor(times["direct"])
    sim_s = floor(times["sim"])
    return {
        "num_workers": num_workers,
        "n_features": n_features,
        "n_classes": n_classes,
        "rounds": rounds,
        "seed": seed,
        "direct_round_s": direct_s,
        "sim_round_s": sim_s,
        "overhead_pct": 100.0 * (sim_s - direct_s) / max(direct_s, 1e-12),
        "events_run": trainers["sim"]._sim_runner.sim.events_run,
        "bitwise_identical": identical,
    }


def format_report(result: dict) -> list[str]:
    return [
        f"Simulation-kernel benchmark (N={result['num_workers']}, "
        f"D={result['n_features']}x{result['n_classes']}, "
        f"{result['rounds']} timed rounds)",
        f"  direct round: {1e3 * result['direct_round_s']:.3f} ms",
        f"  null-scenario round: {1e3 * result['sim_round_s']:.3f} ms "
        f"({result['overhead_pct']:+.1f}%)  "
        f"[{result['events_run']} events total]",
        f"  differential (accepted/uncertain/params): "
        f"{'bit-identical' if result['bitwise_identical'] else 'DIVERGED'}",
    ]


def bench_sim_overhead(benchmark):
    """Pytest entry: fast path within 5% of direct, and bit-identical."""
    result = benchmark.pedantic(
        run_benchmark,
        kwargs=dict(num_workers=8, n_features=32, rounds=30),
        iterations=1, rounds=1, warmup_rounds=0,
    )
    for row in format_report(result):
        print(row)
    assert result["bitwise_identical"]
    assert result["overhead_pct"] < 5.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke scale (smaller federation, fewer rounds)",
    )
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--features", type=int, default=DEFAULT_FEATURES)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the manifest to benchmarks/BENCH_sim.json",
    )
    args = parser.parse_args(argv)

    workers = min(args.workers, 8) if args.quick else args.workers
    rounds = min(args.rounds, 30) if args.quick else args.rounds
    features = min(args.features, 32) if args.quick else args.features

    result = run_benchmark(
        num_workers=workers, n_features=features, rounds=rounds
    )
    for row in format_report(result):
        print(row)
    if not result["bitwise_identical"]:
        print("ERROR: null-scenario run diverged from the direct loop")
        return 1
    run_manifest(
        "bench_sim",
        config={
            "workers": workers, "features": features, "rounds": rounds,
            "seed": 0, "quick": args.quick,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_sim.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
