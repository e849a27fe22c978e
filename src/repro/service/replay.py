"""Traffic-replay harness: sustained-throughput runs under bursty churn.

The service's acceptance bar is operational, not statistical: run 10^4+
rounds of realistic traffic — bursty worker join/leave waves, lossy
lognormal-latency uploads, stragglers, bounded retries — through the
discrete-event kernel, checkpointing on schedule, and show that

* throughput is sustained (reported as rounds/sec over the whole run),
* snapshot overhead stays a small fraction of round wall time, and
* memory is bounded (the monitor's ``rss-growth`` watchdog stays clean
  while the history tail compacts old round records into the rolling
  digest chain).

:func:`generate_workload` derives the whole churn schedule from the
replay seed — the same config always replays the same traffic, so
throughput numbers are comparable across commits.

The harness runs ledger-free by default: a 10^4-block hash chain is
memory the throughput experiment does not need, and the ledger's
byte-identity across kill/resume is covered by the (shorter)
differential tests instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..experiments.common import FedExpConfig
from ..monitor import Monitor, MonitorConfig
from ..perf.resources import ResourceProbe
from ..sim import FaultScenario
from ..sim.latency import LatencyConfig
from ..telemetry import (
    MemorySink,
    Telemetry,
    get_telemetry,
    profile_delta,
    set_telemetry,
)
from .service import FederationService, ServiceConfig

__all__ = ["ReplayConfig", "generate_workload", "run_replay"]

_SALT_WORKLOAD = 0x3EBB


@dataclass(frozen=True)
class ReplayConfig:
    """One replayable traffic scenario (fully derived from ``seed``)."""

    rounds: int = 10_000
    num_workers: int = 16
    server_ranks: tuple[int, ...] = (0, 1)
    seed: int = 0
    # bursty churn: every ``burst_every`` rounds, ``burst_size`` random
    # non-server workers leave together and rejoin ``rejoin_after``
    # rounds later — the arrival/departure waves of real device fleets
    burst_every: int = 50
    burst_size: int = 4
    rejoin_after: int = 20
    # upload path: loss + heavy-tailed WAN latency + straggler process
    drop_prob: float = 0.02
    latency_median_s: float = 0.02
    latency_sigma: float = 0.5
    straggler_rate: float = 0.05
    straggler_slowdown: float = 4.0
    max_retries: int = 1
    round_timeout_s: float = 30.0
    # service policy under replay
    checkpoint_every: int = 500
    history_tail: int = 128
    keep_snapshots: int = 2
    # problem size (blobs: the fast mechanism-focused dataset)
    samples_per_worker: int = 32
    test_samples: int = 128
    # probe cadence (resource samples, fed to the rss-growth watchdog)
    sample_every: int = 20

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.burst_every <= 0 or self.rejoin_after <= 0:
            raise ValueError("burst_every and rejoin_after must be positive")
        if self.burst_size < 0:
            raise ValueError("burst_size must be non-negative")


def generate_workload(cfg: ReplayConfig) -> FaultScenario:
    """The seeded bursty join/leave + timing scenario for one replay.

    Churn only ever touches non-server workers: the replay measures
    sustained service under member churn, not server-loss recovery
    (that path has its own differential tests).
    """
    rng = np.random.default_rng((cfg.seed, _SALT_WORKLOAD))
    eligible = np.array(
        [w for w in range(cfg.num_workers) if w not in cfg.server_ranks]
    )
    churn: list[tuple[int, int, str]] = []
    for burst_round in range(cfg.burst_every, cfg.rounds, cfg.burst_every):
        size = min(cfg.burst_size, eligible.size)
        if size == 0:
            break
        leavers = rng.choice(eligible, size=size, replace=False)
        for wid in sorted(int(w) for w in leavers):
            churn.append((burst_round, wid, "leave"))
            rejoin = burst_round + cfg.rejoin_after
            if rejoin < cfg.rounds:
                churn.append((rejoin, wid, "join"))
    churn.sort()
    return FaultScenario(
        name=f"replay-s{cfg.seed}",
        latency=LatencyConfig(
            kind="lognormal", a=cfg.latency_median_s, b=cfg.latency_sigma
        ),
        round_timeout_s=cfg.round_timeout_s,
        max_retries=cfg.max_retries,
        straggler_rate=cfg.straggler_rate,
        straggler_slowdown=cfg.straggler_slowdown,
        churn=tuple(churn),
        seed=cfg.seed,
    )


def _service_config(cfg: ReplayConfig) -> ServiceConfig:
    fed = FedExpConfig(
        dataset="blobs",
        num_workers=cfg.num_workers,
        samples_per_worker=cfg.samples_per_worker,
        test_samples=cfg.test_samples,
        rounds=cfg.rounds,
        # sparse evaluation: the replay measures service throughput, not
        # a learning curve — evaluate ~20 times across the run
        eval_every=max(1, cfg.rounds // 20),
        server_ranks=tuple(cfg.server_ranks),
        drop_prob=cfg.drop_prob,
        seed=cfg.seed,
        scenario=generate_workload(cfg),
    )
    return ServiceConfig(
        fed=fed,
        with_fifl=True,
        ledger=False,
        checkpoint_every=cfg.checkpoint_every,
        keep_snapshots=cfg.keep_snapshots,
        history_tail=cfg.history_tail,
    )


def run_replay(cfg: ReplayConfig, snapshot_dir: Path | str) -> dict:
    """Replay one traffic scenario end to end; returns the SLO report.

    The harness owns its observability stack: a fresh hub with a
    *bounded* memory sink (so the replay's own telemetry cannot be the
    memory growth it is measuring), a monitor wired for the
    ``rss-growth`` watchdog, and a resource probe sampled at round
    boundaries. The process-wide hub is restored afterwards.
    """
    service_cfg = _service_config(cfg)
    monitor = Monitor(MonitorConfig())
    probe = ResourceProbe(sample_every=cfg.sample_every)
    prev_hub = get_telemetry()
    hub = Telemetry(sinks=[MemorySink(maxlen=4096)])
    set_telemetry(hub)
    try:
        service = FederationService(
            service_cfg, snapshot_dir, monitor=monitor, probe=probe
        )
        before = hub.snapshot()
        t0 = time.perf_counter()
        service.run()
        wall_s = time.perf_counter() - t0
        profile = profile_delta(before, hub.snapshot())
    finally:
        set_telemetry(prev_hub)
        probe.close()

    timings = profile.get("timings", {})
    round_s = timings.get("trainer.round", {}).get("seconds", 0.0)
    checkpoint_s = timings.get("service.save", {}).get("seconds", 0.0)
    overhead_pct = 100.0 * checkpoint_s / round_s if round_s > 0 else 0.0
    alerts = monitor.alerts_summary()
    resources = probe.summary()
    return {
        "rounds": cfg.rounds,
        "wall_s": wall_s,
        "sustained_rounds_per_sec": cfg.rounds / wall_s if wall_s > 0 else 0.0,
        "round_s_total": round_s,
        "checkpoint_s_total": checkpoint_s,
        "snapshot_overhead_pct": overhead_pct,
        "checkpoints": cfg.rounds // cfg.checkpoint_every,
        "history_rounds_in_memory": len(service.history.rounds),
        "history_digest": service.history_digest(),
        "final_accuracy": service.final_accuracy(),
        "alerts": alerts,
        "rss_growth_alerts": alerts["by_rule"].get("rss-growth", 0),
        "resources": resources,
    }
