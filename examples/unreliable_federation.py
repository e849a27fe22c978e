"""An unreliable federation: mixed attackers, lossy links, full defence.

Scenario from the paper's motivation: a CNN federation (MNIST-like task)
where ~40% of workers are unreliable — sign-flippers, data-poisoners, a
free-rider, and an on/off probabilistic attacker — and the uplink drops
messages. Three runs are compared:

* clean        — no attackers (upper bound),
* undefended   — attackers, no mechanism (what FedAvg alone does),
* FIFL         — attackers, full FIFL pipeline + blockchain audit log.

Run:  python examples/unreliable_federation.py
"""

import numpy as np

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_mnist_like, train_test_split
from repro.fl import (
    DataPoisonWorker,
    FederatedTrainer,
    FreeRiderWorker,
    HonestWorker,
    ProbabilisticAttacker,
    SignFlippingWorker,
)
from repro.ledger import Blockchain, audit_reputation
from repro.nn import build_lenet
from repro.population import WorkerPopulation

N_WORKERS = 10
ROUNDS = 25
GAMMA = 0.25


def build_workers(shards, model_fn, unreliable: bool):
    """5 honest workers + (optionally) 4 attackers and 1 free-rider."""
    roster = {}
    if unreliable:
        roster = {
            5: lambda i: SignFlippingWorker(i, shards[i], model_fn, lr=0.02, batch_size=128,
                                            local_iters=2, p_s=8.0, seed=500 + i),
            6: lambda i: DataPoisonWorker(i, shards[i], model_fn, lr=0.02, batch_size=128,
                                          local_iters=2, p_d=0.8, seed=500 + i),
            7: lambda i: FreeRiderWorker(i, shards[i], model_fn, lr=0.02,
                                         seed=500 + i),
            8: lambda i: ProbabilisticAttacker(i, shards[i], model_fn, lr=0.02,
                                               batch_size=128, local_iters=2,
                                               p_a=0.5, p_s=6.0,
                                               seed=500 + i),
        }
    workers = []
    for i in range(N_WORKERS):
        if i in roster:
            workers.append(roster[i](i))
        else:
            workers.append(
                HonestWorker(i, shards[i], model_fn, lr=0.02, batch_size=128,
                             local_iters=2, seed=500 + i)
            )
    return workers


def run(unreliable: bool, defended: bool, ledger=None):
    data = make_mnist_like(n_samples=3400, image_size=14, seed=1)
    train, test = train_test_split(data, 400 / len(data), seed=1)
    shards = iid_partition(train, N_WORKERS, seed=1)
    model_fn = lambda: build_lenet(num_classes=10, image_size=14, seed=1)
    workers = build_workers(shards, model_fn, unreliable)
    mechanism = None
    if defended:
        mechanism = make_mechanism(
            "fifl", ledger=ledger, threshold=0.0, gamma=GAMMA
        )
    trainer = FederatedTrainer(
        model_fn(), WorkerPopulation.from_workers(workers), server_ranks=[0, 1],
        test_data=test, mechanism=mechanism, server_lr=0.02, drop_prob=0.05, seed=1,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        history = trainer.run(ROUNDS, eval_every=ROUNDS)
    return history, mechanism


def main():
    print("training three federations (this takes ~1 minute)...\n")
    clean, _ = run(unreliable=False, defended=False)
    undefended, _ = run(unreliable=True, defended=False)
    chain = Blockchain()
    fifl, mech = run(unreliable=True, defended=True, ledger=chain)

    print(f"{'scenario':>22} {'final accuracy':>15}")
    print(f"{'clean (no attackers)':>22} {clean.final_accuracy():>15.3f}")
    print(f"{'undefended':>22} {undefended.final_accuracy():>15.3f}")
    print(f"{'FIFL-defended':>22} {fifl.final_accuracy():>15.3f}")

    print("\nreputations after training (workers 5-8 are unreliable):")
    for wid, rep in sorted(mech.reputation.reputations().items()):
        flag = "*" if wid in (5, 6, 7, 8) else " "
        print(f"  worker {wid}{flag}: R = {rep:.3f}")

    print("\ncumulative rewards:")
    for wid, reward in sorted(mech.cumulative_rewards().items()):
        print(f"  worker {wid}: {reward:+8.3f}")

    print(f"\naudit: ledger holds {len(chain)} signed round records, "
          f"intact={chain.is_intact()}")
    report = audit_reputation(chain, worker=5, gamma=GAMMA)
    print(f"audit of attacker 5's reputation trail: clean={report.clean} "
          f"({report.rounds_checked} rounds checked)")

    assert fifl.final_accuracy() > undefended.final_accuracy()
    print("\nOK: FIFL held the model together while FedAvg alone collapsed.")


if __name__ == "__main__":
    main()
