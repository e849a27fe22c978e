"""Extension experiment: node failure and the polycentric recovery story.

S3.2: "decentralized architecture lacks fault tolerance in which any node
failure will cause the system to crash"; the polycentric design tolerates
worker failures and — with S4.5's per-round re-selection — even server
failures. Three scenarios, one mid-training crash each:

* ``worker_fails``  — a plain worker dies: training continues;
* ``server_fails``  — a static-cluster server dies: every upload loses a
  slice, aggregation stalls, accuracy freezes (the crash the paper warns
  about);
* ``server_fails_reselect`` — same crash, but reputation-based
  re-selection replaces the dead server and training resumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import make_mechanism
from ..datasets import iid_partition, make_blobs, train_test_split
from ..fl import FederatedTrainer, HonestWorker
from ..nn import build_logreg
from ..population import WorkerPopulation
from .common import DriverConfig

__all__ = ["FaultToleranceConfig", "default_config", "run", "format_rows"]

_N_FEATURES, _N_CLASSES = 16, 4


@dataclass(frozen=True)
class FaultToleranceConfig(DriverConfig):
    num_workers: int = 8
    rounds: int = 24
    fail_at: int = 5
    seed: int = 0


def default_config() -> FaultToleranceConfig:
    return FaultToleranceConfig()


def _build(num_workers: int, seed: int, reselect_every: int):
    # harder task (low signal-to-noise) so convergence spans the run and
    # a mid-training stall is clearly visible in the accuracy curve
    data = make_blobs(
        n_samples=1500, n_features=_N_FEATURES, num_classes=_N_CLASSES,
        signal=1.0, noise=2.0, seed=seed,
    )
    train, test = train_test_split(data, 0.2, seed=seed)
    shards = iid_partition(train, num_workers, seed=seed)
    model_fn = lambda: build_logreg(_N_FEATURES, _N_CLASSES, seed=seed)
    workers = [
        HonestWorker(i, shards[i], model_fn, lr=0.1, seed=seed + 100 + i)
        for i in range(num_workers)
    ]
    mech = make_mechanism("fifl", threshold=0.0, gamma=0.4)
    trainer = FederatedTrainer(
        model_fn(), WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
        mechanism=mech, server_lr=0.1, seed=seed, reselect_every=reselect_every,
    )
    return trainer


def _run_with_failure(
    fail_rank: int | None,
    fail_at: int,
    rounds: int,
    num_workers: int,
    seed: int,
    reselect_every: int = 0,
):
    trainer = _build(num_workers, seed, reselect_every)
    accs = []
    for t in range(rounds):
        if fail_rank is not None and t == fail_at:
            trainer.fail_node(fail_rank)
        rec = trainer.run_round(t)
        accs.append(rec.test_acc)
        if reselect_every and (t + 1) % reselect_every == 0:
            trainer._reselect_servers()
    return accs, trainer


def run(cfg: FaultToleranceConfig | None = None, **overrides) -> dict:
    """Accuracy trajectories for the three failure scenarios + baseline."""
    cfg = (cfg if cfg is not None else default_config()).scaled(**overrides)
    num_workers, rounds, fail_at, seed = (
        cfg.num_workers, cfg.rounds, cfg.fail_at, cfg.seed,
    )
    if not 0 < fail_at < rounds:
        raise ValueError("fail_at must fall inside the training run")
    scenarios: dict[str, dict] = {}

    accs, _ = _run_with_failure(None, fail_at, rounds, num_workers, seed)
    scenarios["no_failure"] = {"acc": accs}

    accs, _ = _run_with_failure(num_workers - 1, fail_at, rounds, num_workers, seed)
    scenarios["worker_fails"] = {"acc": accs}

    accs, _ = _run_with_failure(1, fail_at, rounds, num_workers, seed)
    scenarios["server_fails"] = {"acc": accs}

    accs, trainer = _run_with_failure(
        1, fail_at, rounds, num_workers, seed, reselect_every=1
    )
    scenarios["server_fails_reselect"] = {
        "acc": accs,
        "final_servers": trainer.server_ranks,
    }

    for s in scenarios.values():
        series = s["acc"]
        s["final_acc"] = series[-1]
        s["acc_at_failure"] = series[fail_at]
    return {"scenarios": scenarios, "fail_at": fail_at}


def format_rows(result: dict) -> list[str]:
    rows = [f"Fault tolerance (crash at round {result['fail_at']})"]
    for name, s in result["scenarios"].items():
        extra = ""
        if "final_servers" in s:
            extra = f"  servers={s['final_servers']}"
        rows.append(
            f"  {name:>22}  acc@fail={s['acc_at_failure']:.3f}  "
            f"final={s['final_acc']:.3f}{extra}"
        )
    return rows


def main() -> None:  # pragma: no cover
    for row in format_rows(run()):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
