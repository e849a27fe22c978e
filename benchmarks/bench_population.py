"""Population-scale benchmark: O(cohort) rounds over 10^3..10^6 workers.

The population layer promises that per-round cost depends on the cohort,
never on the registered population: a :class:`~repro.population.
WorkerPopulation` stores recipes (O(1) per id), cohort sampling is O(k),
and only sampled workers are ever materialized. This benchmark prices
that promise two ways:

* **scaling sweep** — lazy blob populations at 10^3 → 10^6 ids, fixed
  cohort, seeded uniform sampling; reports rounds/sec and traced
  bytes/worker at each scale (bytes/worker must *fall* as the
  population grows — the footprint is O(cohort), so amortizing it over
  more registered ids strictly shrinks the per-id figure);
* **O(cohort) memory assertion** — two populations, 25x apart in size,
  identical cohorts: the bigger one's tracemalloc peak must stay within
  a constant factor of the smaller one's (an O(N) allocation anywhere in
  the round path fails this immediately);
* **null-cohort differential** — an explicit full-population uniform
  cohort must reproduce the trainer given no sampler (the full roster)
  bit-for-bit (same accepted sets, same final parameters).

CLI (no pytest needed)::

    python benchmarks/bench_population.py            # sweep to 10^6
    python benchmarks/bench_population.py --quick    # CI smoke (assertions)
    python benchmarks/bench_population.py --json out.json
    python benchmarks/bench_population.py --record   # BENCH_population.json
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs
from repro.experiments.common import FedExpConfig, build_population
from repro.fl import FederatedTrainer, HonestWorker
from repro.nn import build_logreg
from repro.parallel import blas_limits
from repro.population import WorkerPopulation
from repro.telemetry import run_manifest, write_manifest

DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
QUICK_SIZES = (1_000, 25_000)
DEFAULT_COHORT = 32
DEFAULT_ROUNDS = 3
N_FEATURES = 16
N_CLASSES = 4
SAMPLES_PER_WORKER = 60
#: O(cohort) bar: the 25x-bigger population's traced peak may exceed the
#: small one's by at most this factor (plus an absolute floor for
#: allocator noise). An O(N) allocation would blow through this by >10x.
MEM_FACTOR = 1.6
MEM_FLOOR_BYTES = 2 << 20


def _scale_config(population: int, cohort: int, rounds: int, seed: int = 0) -> FedExpConfig:
    return FedExpConfig(
        dataset="blobs",
        num_workers=8,
        samples_per_worker=SAMPLES_PER_WORKER,
        test_samples=100,
        n_features=N_FEATURES,
        n_classes=N_CLASSES,
        rounds=rounds,
        eval_every=rounds,
        server_ranks=(0, 1),
        seed=seed,
        population_size=population,
        cohort_size=cohort,
        sampler="uniform",
        shard_size=16,
    )


def _build_trainer(cfg: FedExpConfig):
    model, population, test = build_population(cfg)
    mechanism = make_mechanism("fifl", shard_size=cfg.shard_size)
    trainer = FederatedTrainer(
        model,
        population=population,
        server_ranks=list(cfg.server_ranks),
        mechanism=mechanism,
        seed=cfg.seed,
        cohort_size=cfg.cohort_size,
        sampler=cfg.sampler,
        fleet_shard_size=cfg.shard_size,
    )
    return trainer, population


def measure_scale(population: int, cohort: int, rounds: int) -> dict:
    """Rounds/sec and traced peak for one population size (seeded)."""
    tracemalloc.start()
    trainer, pop = _build_trainer(_scale_config(population, cohort, rounds))
    # pin the BLAS pool so throughput numbers compare machine to machine
    with blas_limits(1):
        t0 = time.perf_counter()
        for t in range(rounds):
            trainer.run_round(t)
        elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "population": population,
        "cohort": cohort,
        "rounds": rounds,
        "rounds_per_sec": rounds / max(elapsed, 1e-12),
        "peak_bytes": int(peak),
        "bytes_per_worker": peak / population,
        "seen": pop.seen_count,
        "cached": pop.cached_count,
    }


def check_cohort_memory(cohort: int, rounds: int,
                        sizes: tuple[int, int] = QUICK_SIZES) -> dict:
    """Traced peak must not scale with population at fixed cohort."""
    small, big = (measure_scale(n, cohort, rounds) for n in sizes)
    bound = MEM_FACTOR * small["peak_bytes"] + MEM_FLOOR_BYTES
    return {
        "small": small,
        "big": big,
        "bound_bytes": int(bound),
        "ok": big["peak_bytes"] <= bound,
    }


def check_null_cohort(num_workers: int = 8, rounds: int = 5,
                      seed: int = 0) -> dict:
    """Full-population uniform cohort == no-sampler trainer, bit-for-bit."""
    def build(kind: str) -> FederatedTrainer:
        data = make_blobs(
            n_samples=num_workers * 80,
            n_features=N_FEATURES,
            num_classes=N_CLASSES,
            seed=seed,
        )
        shards = iid_partition(data, num_workers, seed=seed)
        model_fn = lambda: build_logreg(N_FEATURES, N_CLASSES, seed=seed)
        workers = [
            HonestWorker(i, shards[i], model_fn, seed=seed + 1000 + i)
            for i in range(num_workers)
        ]
        sampling = (
            dict(cohort_size=num_workers, sampler="uniform")
            if kind == "sampled" else {}
        )
        return FederatedTrainer(
            model_fn(),
            population=WorkerPopulation.from_workers(workers),
            server_ranks=[0, 1],
            mechanism=make_mechanism("fifl"),
            seed=seed,
            **sampling,
        )

    roster, sampled = build("roster"), build("sampled")
    identical = True
    for t in range(rounds):
        ra, rb = roster.run_round(t), sampled.run_round(t)
        identical = identical and ra.accepted == rb.accepted
    identical = identical and (
        roster.model.get_flat_params().tobytes()
        == sampled.model.get_flat_params().tobytes()
    )
    return {"rounds": rounds, "bitwise_identical": identical}


def run_benchmark(sizes=DEFAULT_SIZES, cohort: int = DEFAULT_COHORT,
                  rounds: int = DEFAULT_ROUNDS) -> dict:
    by_size = {}
    for n in sizes:
        by_size[str(n)] = measure_scale(n, cohort, rounds)
    mem = check_cohort_memory(cohort, rounds)
    diff = check_null_cohort()
    return {
        "cohort": cohort,
        "rounds": rounds,
        "by_size": by_size,
        "cohort_memory_ok": mem["ok"],
        "memory_check": {
            "small_peak_bytes": mem["small"]["peak_bytes"],
            "big_peak_bytes": mem["big"]["peak_bytes"],
            "bound_bytes": mem["bound_bytes"],
            "sizes": [mem["small"]["population"], mem["big"]["population"]],
        },
        "bitwise_identical": diff["bitwise_identical"],
    }


def format_report(result: dict) -> list[str]:
    rows = [
        f"Population-scale benchmark (cohort={result['cohort']}, "
        f"{result['rounds']} rounds per size)",
    ]
    for n, entry in sorted(result["by_size"].items(), key=lambda kv: int(kv[0])):
        rows.append(
            f"  N={int(n):>9,}: {entry['rounds_per_sec']:8.2f} rounds/s, "
            f"peak {entry['peak_bytes'] / 2**20:7.1f} MiB "
            f"({entry['bytes_per_worker']:10.1f} B/worker), "
            f"{entry['seen']} workers touched"
        )
    mem = result["memory_check"]
    rows.append(
        f"  O(cohort) memory ({mem['sizes'][0]:,} -> {mem['sizes'][1]:,}): "
        f"{mem['small_peak_bytes'] / 2**20:.1f} -> "
        f"{mem['big_peak_bytes'] / 2**20:.1f} MiB "
        f"(bound {mem['bound_bytes'] / 2**20:.1f}) "
        f"{'OK' if result['cohort_memory_ok'] else 'VIOLATED'}"
    )
    rows.append(
        f"  null-cohort differential vs no-sampler trainer: "
        f"{'bit-identical' if result['bitwise_identical'] else 'DIVERGED'}"
    )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small sizes, assertions only (no sweep to 10^6)",
    )
    parser.add_argument("--cohort", type=int, default=DEFAULT_COHORT)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the manifest to benchmarks/BENCH_population.json",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else DEFAULT_SIZES
    result = run_benchmark(sizes=sizes, cohort=args.cohort, rounds=args.rounds)
    for row in format_report(result):
        print(row)
    ok = result["cohort_memory_ok"] and result["bitwise_identical"]
    if not ok:
        print("ERROR: population-scale contract violated")
        return 1
    run_manifest(
        "bench_population",
        config={
            "sizes": list(sizes), "cohort": args.cohort,
            "rounds": args.rounds, "quick": args.quick,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_population.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
