"""Overhead gates: what the audit payload, the sim kernel, snapshots and
the thread backend cost a round, each as interleaved on/off blocks.

Every figure comes from one helper, :func:`interleaved`. The two sides
run alternately (each iteration flips which goes first), the iterations
are cut into ``BLOCKS`` blocks, a block's overhead is its median paired
(on - off) difference over its median off time, and the figure is the
median over the blocks. Pairing cancels the drift both sides share, and
one block hit by host load cannot move the median. Every row prints the
blocks' spread beside the figure.

Gates (exit 1 when one fails):

* audit payload emission (``FIFLConfig.audit`` on vs off over the same
  synthetic N=256 rounds, flush in the timed region): <= 1.0%;
* a null ``FaultScenario`` round over the direct loop: < 5%;
* a ``run_replay`` with checkpoints over one without: <= 5%, with no
  ``rss-growth`` alert;
* ``thread`` fleet local compute over ``serial``: > 1.0x at N=64 and
  >= 1.3x at N=256 (the keep rule, DESIGN §14), on 2 or more cores.

Reported, not gated: telemetry to memory vs a disabled hub and a
monitor on vs off over whole federated rounds, a JSONL trace plus the
monitor vs a hub with no sinks over 16-worker ledger-on service rounds,
and the cost of one resource-probe sample. Correctness (byte identity,
offline == live audit, O(cohort) memory) is tested in ``tests/``.

    python benchmarks/bench_overhead.py --quick   # CI scale, under 30 s
    python benchmarks/bench_overhead.py           # more rounds per block
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.experiments.common import sign_flip
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from repro.fl.fleet_compute import LocalUpdates
from repro.fl.trainer import RoundContext
from repro.monitor import Monitor, MonitorConfig
from repro.nn import build_logreg, build_mlp
from repro.parallel import auto_workers, blas_limits
from repro.perf import ResourceProbe
from repro.population import WorkerPopulation
from repro.service import FederationService, ReplayConfig, run_replay
from repro.service.replay import _service_config
from repro.sim import FaultScenario
from repro.telemetry import JsonlSink, Telemetry, set_telemetry

#: blocks every figure is the median of
BLOCKS = 7


def interleaved(on, off, per_block: int, warmup: int = 2):
    """Overhead of ``on`` over ``off`` in percent: ``(median, blocks)``.

    ``on(i)`` and ``off(i)`` run iteration ``i`` and return its seconds.
    The first ``warmup`` iterations are dropped.
    """
    times: tuple[list, list] = ([], [])
    for i in range(warmup + BLOCKS * per_block):
        order = ((0, on), (1, off)) if i % 2 else ((1, off), (0, on))
        for side, fn in order:
            times[side].append(fn(i))
    on_s, off_s = (np.reshape(t[warmup:], (BLOCKS, per_block)) for t in times)
    pcts = 100.0 * np.median(on_s - off_s, axis=1) / np.median(off_s, axis=1)
    return float(np.median(pcts)), pcts


def timed(fn):
    def run(i):
        t0 = time.perf_counter()
        fn(i)
        return time.perf_counter() - t0
    return run


def show(name: str, pct: float, pcts, bar: str = "", ok: bool = True) -> bool:
    verdict = f"bar {bar}: {'ok' if ok else 'FAIL'}" if bar else "(reported)"
    print(f"{name:<48} {pct:+6.2f}%  blocks {min(pcts):+.2f}..{max(pcts):+.2f}%"
          f"  {verdict}")
    return ok


def synthetic_round(n: int, dim: int, t: int, servers: int = 4) -> RoundContext:
    """Round ``t``: every fifth worker deviates, worker ``servers`` is lost."""
    rng = np.random.default_rng(t)
    honest = rng.standard_normal(dim)
    noise = rng.standard_normal((n, dim))
    grads = honest + 0.3 * noise
    grads[::5] = -2.0 * honest + noise[::5]
    grads.flags.writeable = False
    ids = np.arange(n, dtype=np.int64)
    local = LocalUpdates(
        worker_ids=ids, gradients=grads,
        sample_counts=np.full(n, 100, dtype=np.int64),
        attacked=np.zeros(n, dtype=bool),
    )
    return RoundContext.admit(
        t, np.zeros(dim), list(range(servers)), local, ids != servers
    )


def federation(n: int, *, mlp: bool = True, backend: str = "serial",
               scenario: FaultScenario | None = None, fifl: bool = False):
    """An MLP federation with two sign-flippers, or else a lossy
    logistic-regression one with no evaluation."""
    features, classes = (16, 4) if mlp else (32, 10)
    data = make_blobs(n_samples=n * 100 + 400, n_features=features,
                      num_classes=classes, seed=0)
    train, test = train_test_split(data, 400 / len(data), seed=0)
    shards = iid_partition(train, n, seed=0)
    if mlp:
        model_fn = lambda: build_mlp(features, classes, hidden=(128,), seed=0)
        kwargs = dict(lr=0.05, batch_size=16)
    else:
        model_fn = lambda: build_logreg(features, classes, seed=0)
        kwargs = dict(lr=0.1)
    workers = [
        SignFlippingWorker(w, shards[w], model_fn, p_s=4.0, local_iters=2,
                           seed=1000 + w, **kwargs)
        if mlp and w >= n - 2 else
        HonestWorker(w, shards[w], model_fn, local_iters=2, seed=1000 + w,
                     **kwargs)
        for w in range(n)
    ]
    return FederatedTrainer(
        model_fn(), WorkerPopulation.from_workers(workers), [0, 1],
        test_data=test if mlp else None,
        mechanism=make_mechanism("fifl", threshold=0.0) if fifl else None,
        server_lr=0.05, seed=0, backend=backend,
        max_workers=2 if backend == "thread" else None,
        drop_prob=0.0 if mlp else 0.05, scenario=scenario,
    )


def audit_gate(quick: bool) -> bool:
    contexts = [synthetic_round(256, 1024 if quick else 4096, t)
                for t in range(5 if quick else 10)]

    def side(audit: bool):
        hub = Telemetry()
        mech = make_mechanism("fifl", threshold=0.0, gamma=0.2, audit=audit)
        mech.profiler = hub

        def run(i):
            mech.process_round(contexts[i % len(contexts)])
            hub.flush()
        return timed(run)

    pct, pcts = interleaved(side(True), side(False),
                            per_block=20 if quick else 60, warmup=10)
    return show("audit payload emission, N=256", pct, pcts, "<= 1.0%",
                pct <= 1.0)


def sim_gate(quick: bool) -> bool:
    n = 8 if quick else 16
    sim = federation(n, mlp=False, scenario=FaultScenario.none())
    direct = federation(n, mlp=False)
    pct, pcts = interleaved(timed(sim.run_round), timed(direct.run_round),
                            per_block=40 if quick else 120, warmup=10)
    return show(f"null-scenario round over direct, N={n}", pct, pcts, "< 5%",
                pct < 5.0)


def replay_gate(quick: bool, workdir: Path) -> bool:
    rounds = 300 if quick else 10_000
    every = max(50, rounds // 20)
    alerts = []

    def side(checkpoint_every: int):
        def run(i):
            path = workdir / f"replay-{checkpoint_every}-{i}"
            report = run_replay(
                ReplayConfig(rounds=rounds, checkpoint_every=checkpoint_every),
                path,
            )
            shutil.rmtree(path, ignore_errors=True)
            if checkpoint_every == every:
                alerts.append(report["rss_growth_alerts"])
            return report["wall_s"]
        return run

    # the off side's cadence lies past the last round: no checkpoint
    pct, pcts = interleaved(side(every), side(rounds + 1), per_block=1,
                            warmup=1)
    ok = show(f"snapshots every {every} of {rounds} replay rounds", pct, pcts,
              "<= 5%", pct <= 5.0)
    print(f"{'rss-growth alerts with snapshots':<48} {sum(alerts):>6}"
          f"  bar 0: {'ok' if not any(alerts) else 'FAIL'}")
    return ok and not any(alerts)


def local_compute_s(trainer):
    """Run round ``i``; return its ``trainer.local_compute`` seconds."""
    def seconds():
        timings = trainer.profiler.snapshot()["timings"]
        return timings.get("trainer.local_compute", {}).get("seconds", 0.0)

    def run(i):
        before = seconds()
        trainer.run_round(i)
        return seconds() - before
    return run


def thread_gates(quick: bool) -> list[bool]:
    """Speedup ``s`` of ``thread`` over ``serial`` local compute; a
    block's overhead ``p`` is ``100 / s - 100``."""
    cores = auto_workers()
    verdicts = []
    for n, bar in ((64, 1.0), (256, 1.3)):
        name = f"thread over serial local compute, N={n}"
        if cores < 2:
            print(f"{name:<48} skipped: {cores} usable core")
            continue
        serial, thread = federation(n), federation(n, backend="thread")
        pct, pcts = interleaved(local_compute_s(thread),
                                local_compute_s(serial),
                                per_block=3 if quick else 10)
        speedup, blocks = 100.0 / (100.0 + pct), 100.0 / (100.0 + pcts)
        ok = speedup > bar if n == 64 else speedup >= bar
        sign = ">" if n == 64 else ">="
        print(f"{name:<48} {speedup:6.2f}x  blocks {blocks.min():.2f}.."
              f"{blocks.max():.2f}x  bar {sign} {bar}x: {'ok' if ok else 'FAIL'}")
        verdicts.append(ok)
        thread.backend.close()
    return verdicts


def instrumentation(quick: bool) -> None:
    """Telemetry and monitor over whole rounds of an N=64 FIFL federation."""
    def side(hub: Telemetry):
        previous = set_telemetry(hub)
        try:
            trainer = federation(64, fifl=True)
        finally:
            set_telemetry(previous)

        def run(i):
            previous = set_telemetry(hub)
            try:
                t0 = time.perf_counter()
                trainer.run_round(i)
                hub.flush()
                return time.perf_counter() - t0
            finally:
                set_telemetry(previous)
        return run

    per_block = 5 if quick else 20
    pct, pcts = interleaved(side(Telemetry()), side(Telemetry(enabled=False)),
                            per_block)
    show("telemetry to memory over a disabled hub, N=64", pct, pcts)
    monitored = Telemetry()
    Monitor(MonitorConfig()).install(monitored)
    pct, pcts = interleaved(side(monitored), side(Telemetry()), per_block)
    show("monitor on over off, N=64", pct, pcts)
    with ResourceProbe() as probe:
        sample_s = [timed(probe.sample)(i) for i in range(600)]
    print(f"{'resource-probe sample':<48} {np.median(sample_s) * 1e6:6.2f} us"
          "  (reported)")


def service_instrumentation(quick: bool, workdir: Path) -> None:
    """A JSONL trace plus the monitor over 16-worker ledger-on service
    rounds under seeded churn (no checkpoints), against a hub with no
    sinks; the per-round hub flush is inside the timed region."""
    per_block = 10 if quick else 40
    rounds = 2 + BLOCKS * per_block
    replay = ReplayConfig(rounds=rounds, seed=1, checkpoint_every=rounds + 1)
    config = dataclasses.replace(
        _service_config(replay), attackers={5: sign_flip(4.0)}, ledger=True,
        checkpoint_on_signal=False,
    )

    def side(name: str, hub: Telemetry, monitor):
        previous = set_telemetry(hub)
        try:
            service = FederationService(config, workdir / name,
                                        monitor=monitor)
        finally:
            set_telemetry(previous)

        def run(i):
            previous = set_telemetry(hub)
            try:
                t0 = time.perf_counter()
                service.run(until_round=i + 1)
                return time.perf_counter() - t0
            finally:
                set_telemetry(previous)
        return run

    traced = Telemetry(sinks=[JsonlSink(workdir / "service.jsonl")])
    pct, pcts = interleaved(side("on", traced, Monitor(MonitorConfig())),
                            side("off", Telemetry(sinks=[]), None), per_block)
    traced.close()
    show("JSONL trace + monitor over none, service N=16", pct, pcts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI scale: fewer rounds per block")
    quick = parser.parse_args(argv).quick
    with blas_limits(1), tempfile.TemporaryDirectory() as tmp:
        verdicts = [audit_gate(quick), sim_gate(quick),
                    replay_gate(quick, Path(tmp)), *thread_gates(quick)]
        instrumentation(quick)
        service_instrumentation(quick, Path(tmp))
    print(f"gates: {'ok' if all(verdicts) else 'FAILED'}")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
