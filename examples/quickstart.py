"""Quickstart: a FIFL federation in ~60 lines.

Builds a 6-worker federation (one sign-flipping attacker) over synthetic
blob data, trains it with the FIFL mechanism plugged into the federated
trainer, and prints what the mechanism decided: who was detected, every
worker's reputation, and the cumulative rewards/punishments.

Run:  python examples/quickstart.py

Set ``REPRO_TRACE=/path/to/trace.jsonl`` to also stream the full
telemetry trace (spans, mechanism metrics, per-round events) to a JSONL
file; render it afterwards with
``python -m repro.trace summary trace.jsonl``.
"""

import os

import numpy as np

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.telemetry import JsonlSink, MemorySink, Telemetry, set_telemetry

trace_path = os.environ.get("REPRO_TRACE")
if trace_path:
    set_telemetry(Telemetry(sinks=[MemorySink(), JsonlSink(trace_path)]))

N_FEATURES, N_CLASSES, N_WORKERS = 16, 4, 6

# 1) data: synthetic classification, split across workers -------------------
data = make_blobs(n_samples=1200, n_features=N_FEATURES, num_classes=N_CLASSES, seed=0)
train, test = train_test_split(data, test_fraction=0.2, seed=0)
shards = iid_partition(train, N_WORKERS, seed=0)

# 2) workers: five honest + one sign-flipping attacker -----------------------
model_fn = lambda: build_logreg(N_FEATURES, N_CLASSES, seed=0)
workers = [
    HonestWorker(i, shards[i], model_fn, lr=0.1, seed=100 + i)
    for i in range(N_WORKERS - 1)
]
workers.append(
    SignFlippingWorker(
        N_WORKERS - 1, shards[-1], model_fn, lr=0.1, p_s=6.0, seed=199
    )
)

# 3) the FIFL mechanism (flat keywords route into the nested configs) ---------
mechanism = make_mechanism(
    "fifl",
    threshold=0.0,
    mode="cosine",
    gamma=0.2,  # reputation time-decay (Eq. 10)
    budget_per_round=1.0,  # I_sum distributed each round
)

# 4) train: polycentric architecture with servers {0, 1} ----------------------
trainer = FederatedTrainer(
    model=build_logreg(N_FEATURES, N_CLASSES, seed=0),
    population=WorkerPopulation.from_workers(workers),
    server_ranks=[0, 1],
    test_data=test,
    mechanism=mechanism,
    server_lr=0.1,
)
history = trainer.run(num_rounds=30, eval_every=10)

# 5) what happened -------------------------------------------------------------
print(f"final test accuracy: {history.final_accuracy():.3f}")
last = mechanism.records[-1]
print("\nlast-round detection (r_i):")
for wid in sorted(last.accepted):
    role = "ATTACKER" if wid == N_WORKERS - 1 else "honest"
    print(
        f"  worker {wid} ({role:>8}): score={last.scores[wid]:+.3f} "
        f"accepted={last.accepted[wid]}"
    )
print("\nreputations:")
for wid, rep in sorted(mechanism.reputation.reputations().items()):
    print(f"  worker {wid}: R = {rep:.3f}")
print("\ncumulative rewards (negative = punished):")
for wid, reward in sorted(mechanism.cumulative_rewards().items()):
    print(f"  worker {wid}: {reward:+.3f}")

attacker_reward = mechanism.cumulative_rewards()[N_WORKERS - 1]
assert attacker_reward < 0, "the attacker should have been punished"
print("\nOK: attacker detected, excluded from aggregation, and punished.")

if trace_path:
    from repro.telemetry import get_telemetry

    get_telemetry().close()
    print(f"\n[trace written to {trace_path}; render it with"
          f" `python -m repro.trace summary {trace_path}`]")
