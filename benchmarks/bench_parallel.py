"""Parallel-backend benchmark: multi-core fleet GEMMs vs the serial oracle.

Times the ``trainer.local_compute`` phase of :class:`FederatedTrainer`
on a fig09-style MLP federation (synthetic blobs, 16 features, 4
classes, one hidden layer of 128) on the ``serial`` and ``thread``
execution backends (see :mod:`repro.parallel`) across pool sizes, and
reports the scaling curve. The timed regions run
under :func:`repro.parallel.blas_limits` so BLAS-pool oversubscription
never pollutes the comparison.

Byte-identity is the other half of the contract: ``--quick`` trains the
same seeded FIFL federation on each backend and requires the histories
(losses, accept verdicts, rewards, final parameters) to match the
serial run *exactly* — not to tolerance.

Speedup expectations are core-gated: the machine's usable core count is
recorded in the manifest, the smoke gate (``speedup > 1.0``) applies
from 2 cores and the 2x target from 4 cores. On a 1-core container the
curve is still recorded (it documents dispatch overhead) but no speedup
assertion can be meaningful. A host can report 2 cores and still have
no free second one (a neighbour keeps it busy), so when the smoke gate
fails the benchmark times two busy processes against one and reports
that contention ratio in the failure line and the ``--json`` output:
about 1.0 means the second core was free and the parallel path is at
fault, about 2.0 means the two processes shared one core.

CLI (no pytest needed)::

    python benchmarks/bench_parallel.py            # N in {64, 256}
    python benchmarks/bench_parallel.py --quick    # differentials + smoke gate
    python benchmarks/bench_parallel.py --json out.json
    python benchmarks/bench_parallel.py --record   # benchmarks/BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from repro.population import WorkerPopulation
from repro.nn import build_mlp
from repro.parallel import auto_workers, blas_limits
from repro.telemetry import Telemetry
from repro.telemetry import run_manifest, write_manifest

#: the phase the parallel fleet path shards across cores
LOCAL_PHASE = "trainer.local_compute"

DEFAULT_SIZES = (64, 256)
DEFAULT_ROUNDS = 10
WORKER_COUNTS = (1, 2, 4)
PARALLEL_BACKENDS = ("thread",)
N_FEATURES, N_CLASSES, HIDDEN = 16, 4, (128,)
SAMPLES_PER_WORKER, BATCH_SIZE, LOCAL_ITERS = 100, 16, 2


def make_trainer(
    num_workers: int,
    backend: str,
    max_workers: int | None = None,
    seed: int = 0,
    n_attackers: int = 2,
    with_fifl: bool = False,
) -> FederatedTrainer:
    """Fig09-style MLP federation with the execution backend plumbed in.

    The last ``n_attackers`` ranks are sign-flippers so every backend
    exercises the post-hoc ``finalize_update`` path (where attacker RNG
    draws must line up with serial). ``with_fifl`` attaches the FIFL
    mechanism, so the differential also covers the accept verdicts and
    rewards computed from the pooled updates.
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
    mechanism = make_mechanism("fifl", threshold=0.0) if with_fifl else None
    trainer = FederatedTrainer(
        model_fn(),
        population=WorkerPopulation.from_workers(workers),
        server_ranks=[0, 1],
        test_data=test,
        mechanism=mechanism,
        server_lr=0.05,
        seed=seed,
        backend=backend,
        max_workers=max_workers,
    )
    # isolate timings from the global profiler
    trainer.profiler = Telemetry()
    return trainer


def time_backend(
    backend: str,
    num_workers: int,
    rounds: int,
    max_workers: int | None = None,
    seed: int = 0,
    repeats: int = 2,
) -> dict:
    """Best-of-``repeats`` ``local_compute`` seconds for one backend.

    Timed under ``blas_limits(1)`` so serial and parallel contend for
    the same one-BLAS-thread-per-shard budget — without the guard, a
    multi-threaded BLAS makes "serial" secretly parallel and the
    comparison meaningless.
    """
    warm = make_trainer(num_workers, backend, max_workers, seed=seed + 77)
    warm.run(1, eval_every=1)
    best: dict | None = None
    for _ in range(repeats):
        trainer = make_trainer(num_workers, backend, max_workers, seed=seed)
        with blas_limits(1):
            t0 = time.perf_counter()
            history = trainer.run(rounds, eval_every=rounds)
            total = time.perf_counter() - t0
        phases = history.profile["timings"]
        run = {
            "total_s": total,
            "local_s": phases.get(LOCAL_PHASE, {}).get("seconds", 0.0),
        }
        if best is None or run["local_s"] < best["local_s"]:
            best = run
        trainer.backend.close()
    return best


def history_fingerprint(trainer: FederatedTrainer, rounds: int) -> dict:
    """Train and reduce the run to exactly-comparable outputs."""
    history = trainer.run(rounds, eval_every=1)
    out = {
        "params": trainer.model.get_flat_params().copy(),
        "rounds": [
            (r.test_loss, r.test_acc, r.grad_norm, tuple(sorted(r.accepted.items())),
             tuple(sorted(r.mechanism_records.get("rewards", {}).items())))
            for r in history.rounds
        ],
    }
    trainer.backend.close()
    return out


def check_differentials(
    num_workers: int = 16, rounds: int = 4, seed: int = 0,
    worker_counts: tuple[int, ...] = (2,),
) -> dict[str, bool]:
    """Byte-identity of the thread backend against the serial oracle.

    Runs the full FIFL pipeline (pooled fleet local SGD, serial round
    kernels) and compares histories and final parameters with ``==`` —
    the ordered-reduce contract promises bitwise equality, so any
    tolerance would hide a real divergence.
    """
    oracle = history_fingerprint(
        make_trainer(num_workers, "serial", seed=seed, with_fifl=True), rounds
    )
    verdicts: dict[str, bool] = {}
    for backend in PARALLEL_BACKENDS:
        for mw in worker_counts:
            got = history_fingerprint(
                make_trainer(num_workers, backend, mw, seed=seed, with_fifl=True),
                rounds,
            )
            identical = bool(
                np.array_equal(oracle["params"], got["params"])
                and oracle["rounds"] == got["rounds"]
            )
            verdicts[f"{backend}_w{mw}"] = identical
    return verdicts


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    rounds: int = DEFAULT_ROUNDS,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
    seed: int = 0,
) -> dict:
    """Serial baseline + thread scaling curve per federation size."""
    cores = auto_workers()
    by_size: dict[int, dict] = {}
    for n in sizes:
        serial = time_backend("serial", n, rounds, seed=seed)
        scaling: dict[str, dict] = {}
        best_speedup = 0.0
        for backend in PARALLEL_BACKENDS:
            curve: dict[str, dict] = {}
            for mw in worker_counts:
                timing = time_backend(backend, n, rounds, mw, seed=seed)
                speedup = serial["local_s"] / max(timing["local_s"], 1e-12)
                curve[str(mw)] = {
                    "local_s": timing["local_s"],
                    "total_s": timing["total_s"],
                    "speedup_local": speedup,
                }
                best_speedup = max(best_speedup, speedup)
            scaling[backend] = curve
        by_size[n] = {
            "serial": serial,
            "scaling": scaling,
            "speedup_best": best_speedup,
        }
    return {
        "model": f"mlp{list(HIDDEN)}",
        "n_features": N_FEATURES,
        "n_classes": N_CLASSES,
        "batch_size": BATCH_SIZE,
        "local_iters": LOCAL_ITERS,
        "rounds": rounds,
        "cores": cores,
        "worker_counts": list(worker_counts),
        "by_size": by_size,
        "bitwise_identical": all(check_differentials().values()),
    }


def _busy_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


def contention_ratio(loops: int = 2_000_000) -> float:
    """Wall time of two concurrent busy processes over that of one.

    The pool is warmed up first so process start-up is not timed.
    """
    with ProcessPoolExecutor(max_workers=2) as pool:
        list(pool.map(_busy_loop, [1, 1]))
        t0 = time.perf_counter()
        pool.submit(_busy_loop, loops).result()
        alone = time.perf_counter() - t0
        t0 = time.perf_counter()
        list(pool.map(_busy_loop, [loops, loops]))
        together = time.perf_counter() - t0
    return together / max(alone, 1e-12)


def format_report(result: dict) -> list[str]:
    rows = [
        f"Parallel-backend benchmark ({result['model']}, B={result['batch_size']}, "
        f"{result['local_iters']} local iters, {result['rounds']} rounds per "
        f"timing, {result['cores']} usable core(s))"
    ]
    for n, r in result["by_size"].items():
        rows.append(
            f"N={n}: serial local_compute {r['serial']['local_s']:.4f}s"
        )
        for backend, curve in r["scaling"].items():
            for mw, entry in curve.items():
                rows.append(
                    f"  {backend:>8} x{mw}: {entry['local_s']:.4f}s "
                    f"({entry['speedup_local']:.2f}x)"
                )
        rows.append(f"  best speedup: {r['speedup_best']:.2f}x")
    rows.append(
        f"bitwise identical to serial: {result['bitwise_identical']}"
    )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke scale + serial/thread byte-identity gate",
    )
    parser.add_argument(
        "--sizes", default="",
        help="comma-separated federation sizes (default 64,256)",
    )
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the result to benchmarks/BENCH_parallel.json",
    )
    args = parser.parse_args(argv)

    cores = auto_workers()
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip()) or DEFAULT_SIZES
    rounds = args.rounds
    worker_counts = WORKER_COUNTS
    if args.quick:
        sizes, rounds, worker_counts = (64,), min(rounds, 3), (2,)

    verdicts = check_differentials(worker_counts=(2,))
    for key, ok in verdicts.items():
        print(f"differential serial vs {key}: {'byte-identical' if ok else 'MISMATCH'}")
    if not all(verdicts.values()):
        return 1

    result = run_benchmark(sizes=sizes, rounds=rounds, worker_counts=worker_counts)
    for row in format_report(result):
        print(row)

    # Speedup gates are core-gated: they assert real parallel hardware
    # behaviour, not scheduler luck on an oversubscribed single core.
    best = max(r["speedup_best"] for r in result["by_size"].values())
    if cores >= 2 and best <= 1.0:
        ratio = contention_ratio()
        result["contention_ratio"] = ratio
        print(
            f"FAIL: best parallel speedup {best:.2f}x <= 1.0 on {cores} cores; "
            f"two busy processes take {ratio:.2f}x the wall time of one "
            f"(~1.0: a free second core; ~2.0: they share one)"
        )
        if args.json:
            write_manifest(Path(args.json), result)
            print(f"[saved {args.json}]")
        return 1
    if cores >= 4 and not args.quick and 256 in result["by_size"]:
        target = result["by_size"][256]["speedup_best"]
        if target < 2.0:
            print(f"FAIL: N=256 speedup {target:.2f}x < 2.0x on {cores} cores")
            return 1

    run_manifest(
        "bench_parallel",
        config={
            "sizes": list(sizes), "rounds": rounds, "seed": 0,
            "quick": args.quick, "cores": cores,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_parallel.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
