"""Differential: parallel training is byte-identical to the serial oracle.

Every thread-pool size must reproduce the serial run *exactly* —
losses, accuracy, gradient norms, accept verdicts, rewards,
reputations — on both a fig09-style sign-flip federation and a
fig11-style probabilistic-attack federation, because the ordered reduce
and per-worker RNGs promise bitwise equality, not closeness.
"""

import pytest

from repro.experiments.common import (
    FedExpConfig,
    probabilistic,
    run_federated,
    sign_flip,
)
from repro.fl import FederatedTrainer
from repro.monitor import Monitor, MonitorConfig
from repro.population import WorkerPopulation
from tests.helpers import make_federation, model_fn

BASE = FedExpConfig(
    dataset="blobs",
    num_workers=12,
    samples_per_worker=50,
    test_samples=80,
    rounds=4,
    eval_every=1,
    batch_size=16,
)

#: fig09 shape: fixed-intensity sign-flippers
FIG09_ATTACK = {2: sign_flip(4.0), 3: sign_flip(4.0)}
#: fig11 shape: a sometimes-honest probabilistic attacker
FIG11_ATTACK = {4: probabilistic(0.5, 4.0)}

GRID = [("thread", mw) for mw in (1, 2, 4)]


def fingerprint(cfg, attackers):
    history, _ = run_federated(cfg, attackers=attackers, with_fifl=True)
    return [
        (
            r.round_idx,
            r.test_loss,
            r.test_acc,
            r.grad_norm,
            tuple(sorted(r.accepted.items())),
            tuple(sorted(r.uncertain)),
            tuple(sorted(r.mechanism_records.get("rewards", {}).items())),
            tuple(sorted(r.mechanism_records.get("reputations", {}).items())),
        )
        for r in history.rounds
    ]


@pytest.fixture(scope="module")
def serial_fig09():
    return fingerprint(BASE, FIG09_ATTACK)


@pytest.fixture(scope="module")
def serial_fig11():
    return fingerprint(BASE, FIG11_ATTACK)


class TestByteIdentity:
    @pytest.mark.parametrize("backend,mw", GRID)
    def test_fig09_history_matches_serial(self, serial_fig09, backend, mw):
        got = fingerprint(
            BASE.scaled(backend=backend, max_workers=mw), FIG09_ATTACK
        )
        assert got == serial_fig09

    @pytest.mark.parametrize("backend,mw", GRID)
    def test_fig11_history_matches_serial(self, serial_fig11, backend, mw):
        got = fingerprint(
            BASE.scaled(backend=backend, max_workers=mw), FIG11_ATTACK
        )
        assert got == serial_fig11


def _make_trainer(num_workers=16, backend="thread", max_workers=2, monitor=None):
    workers, _, test = make_federation(num_workers=num_workers)
    return FederatedTrainer(
        model_fn(0)(),
        population=WorkerPopulation.from_workers(workers),
        server_ranks=[0, 1],
        test_data=test,
        seed=0,
        backend=backend,
        max_workers=max_workers,
        monitor=monitor,
    )


class TestShardCrash:
    def test_crash_surfaces_original_and_dumps_postmortem(
        self, tmp_path, monkeypatch
    ):
        """A shard task that raises must not be swallowed by the pool:
        the trainer re-raises the original exception and the monitor's
        flight recorder still writes its crash post-mortem."""
        from repro.fl.fleet_compute import FleetLocalEngine

        def exploding(self, group, theta, global_buffers, updates, prof=None):
            raise RuntimeError("boom in shard")

        monkeypatch.setattr(FleetLocalEngine, "_run_group", exploding)
        monitor = Monitor(
            MonitorConfig(postmortem_dir=str(tmp_path), run_id="crash")
        )
        trainer = _make_trainer(monitor=monitor)
        with pytest.raises(RuntimeError, match="boom in shard"):
            trainer.run(2)
        assert list(tmp_path.glob("postmortem-*.jsonl"))

    def test_clean_run_writes_no_postmortem(self, tmp_path):
        monitor = Monitor(
            MonitorConfig(postmortem_dir=str(tmp_path), run_id="clean")
        )
        trainer = _make_trainer(monitor=monitor)
        trainer.run(2)
        assert not list(tmp_path.glob("postmortem-*.jsonl"))


class TestTelemetry:
    def test_parallel_events_emitted(self):
        from repro.telemetry import Telemetry

        trainer = _make_trainer()
        trainer.profiler = Telemetry()
        trainer.run(2)
        snap = trainer.profiler.snapshot()
        assert snap["counters"].get("parallel.dispatches", 0) > 0
        metrics = trainer.profiler.metrics_snapshot()
        assert metrics["gauges"]["parallel.pool_size"] == 2

    def test_serial_emits_no_parallel_events(self):
        from repro.telemetry import Telemetry

        trainer = _make_trainer(backend="serial", max_workers=None)
        trainer.profiler = Telemetry()
        trainer.run(2)
        snap = trainer.profiler.snapshot()
        assert snap["counters"].get("parallel.dispatches", 0) == 0
