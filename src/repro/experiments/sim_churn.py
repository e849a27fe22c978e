"""Simulation experiment: reputation and rewards under worker/server churn.

The paper's incentive mechanism is pitched at open federations where
devices come and go (S1), but the figure experiments all run fixed
rosters. This scenario runs FIFL over the discrete-event kernel with a
churn schedule derived from the round budget:

* a plain worker leaves mid-training and later rejoins — while away it
  earns nothing and its reputation freezes (absent, not uncertain);
* a *server* crashes and later restarts — while it is down every upload
  loses a slice, so all online workers become SLM *uncertain events*
  and aggregation stalls, exactly the S3.2 fault-tolerance story.

Tracked outputs: per-worker reputation trajectories, cumulative-reward
trajectories, the per-round uncertain count (spikes during the server
outage), and virtual round durations. The whole run is seeded and
byte-reproducible (same seed + scenario => identical histories).
"""

from __future__ import annotations

import numpy as np

from ..sim import FaultScenario, LatencyConfig
from .common import FedExpConfig, run_federated

__all__ = ["default_config", "run", "format_rows"]


def default_config() -> FedExpConfig:
    return FedExpConfig(
        dataset="blobs",
        num_workers=8,
        samples_per_worker=120,
        test_samples=150,
        rounds=18,
        eval_every=6,
        gamma=0.3,
        server_ranks=(0, 1),
    )


def make_scenario(cfg: FedExpConfig) -> tuple[FaultScenario, dict]:
    """Churn schedule scaled to the round budget (works under --fast)."""
    R = cfg.rounds
    churn_worker = cfg.num_workers - 1
    crashed_server = cfg.server_ranks[-1]
    leave_r = max(1, R // 6)
    rejoin_r = max(leave_r + 1, R // 3)
    crash_r = max(rejoin_r + 1, R // 2)
    restart_r = min(R - 1, crash_r + max(1, R // 5))
    scenario = FaultScenario(
        name="churn",
        latency=LatencyConfig(kind="uniform", a=0.01, b=0.05),
        round_timeout_s=5.0,
        max_retries=1,
        base_compute_s=0.1,
        churn=(
            (leave_r, churn_worker, "leave"),
            (rejoin_r, churn_worker, "join"),
            (crash_r, crashed_server, "leave"),
            (restart_r, crashed_server, "join"),
        ),
        seed=cfg.seed,
    )
    schedule = {
        "churn_worker": churn_worker,
        "crashed_server": crashed_server,
        "worker_away": (leave_r, rejoin_r),
        "server_down": (crash_r, restart_r),
    }
    return scenario, schedule


def run(cfg: FedExpConfig | None = None) -> dict:
    """Reputation/reward trajectories under a churn + crash schedule."""
    cfg = cfg if cfg is not None else default_config()
    scenario, schedule = make_scenario(cfg)
    cfg = cfg.scaled(scenario=scenario)
    history, mech = run_federated(cfg, attackers=None, with_fifl=True)
    assert mech is not None

    stable_worker = cfg.num_workers - 2  # honest, never churned: the control
    tracked = {
        "churned": schedule["churn_worker"],
        "stable": stable_worker,
    }
    reputations = {
        name: [rec.reputations[wid] for rec in mech.records if wid in rec.reputations]
        for name, wid in tracked.items()
    }
    cum_rewards = {}
    for name, wid in tracked.items():
        per_round = [rec.rewards.get(wid, 0.0) for rec in mech.records]
        cum_rewards[name] = list(np.cumsum(per_round))

    uncertain = [len(r.uncertain) for r in history.rounds]
    crash_r, restart_r = schedule["server_down"]
    outage = uncertain[crash_r:restart_r]
    return {
        "schedule": schedule,
        "tracked": tracked,
        "reputations": reputations,
        "cumulative_rewards": cum_rewards,
        "uncertain_per_round": uncertain,
        "durations_s": [r.duration_s for r in history.rounds],
        "retries": sum((r.sim or {}).get("retries", 0) for r in history.rounds),
        "mean_uncertain_during_outage": float(np.mean(outage)) if outage else 0.0,
        "mean_uncertain_elsewhere": float(
            np.mean(uncertain[:crash_r] + uncertain[restart_r:])
        ),
    }


def format_rows(result: dict) -> list[str]:
    sched = result["schedule"]
    rows = [
        "Sim: churn + server crash/restart (discrete-event kernel)",
        f"  worker {sched['churn_worker']} away rounds "
        f"{sched['worker_away'][0]}..{sched['worker_away'][1]}, "
        f"server {sched['crashed_server']} down rounds "
        f"{sched['server_down'][0]}..{sched['server_down'][1]}",
        f"  uncertain/round during outage={result['mean_uncertain_during_outage']:.2f}"
        f"  elsewhere={result['mean_uncertain_elsewhere']:.2f}"
        f"  retries={result['retries']}",
    ]
    for name in ("churned", "stable"):
        rep = result["reputations"][name]
        cum = result["cumulative_rewards"][name]
        rows.append(
            f"  {name:>8} worker {result['tracked'][name]}:"
            f"  final reputation={rep[-1]:.3f}"
            f"  cumulative reward={cum[-1]:.3f}"
        )
    return rows


def main() -> None:  # pragma: no cover
    for row in format_rows(run()):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
