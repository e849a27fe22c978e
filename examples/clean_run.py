"""Clean run: an all-honest FIFL federation under the health monitor.

This is the observability counterpart to ``quickstart.py``: the same
federation shape but with *no* attacker, trained with a live
:class:`repro.monitor.Monitor` attached to the telemetry hub. A clean,
seeded run must produce **zero** alerts — CI uses this script (plus an
offline ``python -m repro.trace scan`` of the trace it writes) as the
silent-path gate: every watchdog rule and anomaly detector sees real
traffic, and none of them may fire.

Run:  python examples/clean_run.py

Exits non-zero if the monitor raised any alert. Set
``REPRO_TRACE=/path/to/trace.jsonl`` to also stream the telemetry
trace; scan it afterwards with
``python -m repro.trace scan trace.jsonl --strict``.
"""

import os
import sys

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker
from repro.monitor import Monitor, MonitorConfig
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.telemetry import JsonlSink, MemorySink, Telemetry, set_telemetry

trace_path = os.environ.get("REPRO_TRACE")
if trace_path:
    set_telemetry(Telemetry(sinks=[MemorySink(), JsonlSink(trace_path)]))

N_FEATURES, N_CLASSES, N_WORKERS = 16, 4, 6

# 1) data: synthetic classification, split across honest workers -------------
data = make_blobs(n_samples=1200, n_features=N_FEATURES, num_classes=N_CLASSES, seed=0)
train, test = train_test_split(data, test_fraction=0.2, seed=0)
shards = iid_partition(train, N_WORKERS, seed=0)

model_fn = lambda: build_logreg(N_FEATURES, N_CLASSES, seed=0)
workers = [
    HonestWorker(i, shards[i], model_fn, lr=0.1, seed=100 + i)
    for i in range(N_WORKERS)
]

# 2) mechanism + monitor ------------------------------------------------------
mechanism = make_mechanism(
    "fifl", threshold=0.0, mode="cosine", gamma=0.2, budget_per_round=1.0
)
monitor = Monitor(MonitorConfig(run_id="clean-run"))

# 3) train with the monitor watching the hub ---------------------------------
trainer = FederatedTrainer(
    model=build_logreg(N_FEATURES, N_CLASSES, seed=0),
    population=WorkerPopulation.from_workers(workers),
    server_ranks=[0, 1],
    test_data=test,
    mechanism=mechanism,
    server_lr=0.1,
    monitor=monitor,
)
history = trainer.run(num_rounds=30, eval_every=10)

# 4) report -------------------------------------------------------------------
print(f"final test accuracy: {history.final_accuracy():.3f}")
summary = monitor.alerts_summary()
print(f"monitor alerts: {summary['total']}")
for rule, count in summary["by_rule"].items():
    print(f"  {rule}: {count}")

if trace_path:
    from repro.telemetry import get_telemetry

    get_telemetry().close()
    print(f"[trace written to {trace_path}; scan it with"
          f" `python -m repro.trace scan {trace_path} --strict`]")

if not monitor.ok:
    print("FAIL: a clean run must not trip the health monitor", file=sys.stderr)
    sys.exit(1)
print("OK: clean run, zero alerts.")
