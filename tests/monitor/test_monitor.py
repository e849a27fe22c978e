"""Monitor integration: live sink, strict mode, trainer/runner wiring,
the offline/online differential, and trace byte-identity.

The heavyweight fixtures (a clean seeded run and a sign-flip attack
run, both traced) are module-scoped: every assertion about silence,
firing, replay equality and byte-identity reads the same two runs.
"""

import json

import pytest

from repro.monitor import Monitor, MonitorConfig, MonitorError, scan_events
from repro.population import WorkerPopulation
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    TickClock,
    set_telemetry,
)
from repro.telemetry.sinks import encode_event


def tiny_fed(**over):
    from repro.experiments.fig09_detection import _default_fed

    cfg = _default_fed().scaled(
        rounds=8, num_workers=6, samples_per_worker=40, test_samples=50,
    )
    return cfg.scaled(**over) if over else cfg


def run_traced(path, attackers=None, monitor=None):
    """One seeded run on a fresh deterministic hub tracing to ``path``."""
    from repro.experiments.common import run_federated

    tele = Telemetry(sinks=[MemorySink(), JsonlSink(path)], clock=TickClock())
    if monitor is not None:
        monitor.install(tele)
    previous = set_telemetry(tele)
    try:
        run_federated(tiny_fed(), attackers=attackers, with_fifl=True)
    finally:
        tele.close()
        if monitor is not None:
            monitor.uninstall()
        set_telemetry(previous)
    return tele


def round_trip(events):
    """Live events -> canonical JSONL bytes -> decoded replay spelling."""
    return [json.loads(encode_event(ev)) for ev in events]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean") / "trace.jsonl"
    monitor = Monitor(MonitorConfig())
    tele = run_traced(path, monitor=monitor)
    return monitor, tele, path


@pytest.fixture(scope="module")
def attack_run(tmp_path_factory):
    from repro.experiments.common import sign_flip

    path = tmp_path_factory.mktemp("attack") / "trace.jsonl"
    monitor = Monitor(MonitorConfig())
    tele = run_traced(
        path, attackers={2: sign_flip(6.0), 3: sign_flip(6.0)},
        monitor=monitor,
    )
    return monitor, tele, path


class TestCleanRunSilence:
    def test_no_live_alerts(self, clean_run):
        monitor, _, _ = clean_run
        assert monitor.ok
        assert monitor.alerts == []

    def test_no_offline_alerts(self, clean_run):
        _, tele, _ = clean_run
        assert scan_events(round_trip(tele.events())) == []

    def test_alert_summary_reports_zero(self, clean_run):
        monitor, _, _ = clean_run
        summary = monitor.alerts_summary()
        assert summary == {"total": 0, "by_rule": {}, "alerts": []}


class TestAttackRunFires:
    def test_sign_flip_trips_margin_collapse(self, attack_run):
        monitor, _, _ = attack_run
        assert not monitor.ok
        assert "margin-collapse" in {a.rule for a in monitor.alerts}

    def test_offline_replay_reproduces_live_alerts_exactly(self, attack_run):
        monitor, tele, _ = attack_run
        offline = scan_events(round_trip(tele.events()))
        assert [a.to_dict() for a in offline] == \
            [a.to_dict() for a in monitor.alerts]

    def test_scan_of_trace_file_matches_live(self, attack_run):
        from repro.telemetry import read_trace

        monitor, _, path = attack_run
        events = read_trace(path)
        offline = scan_events(events)
        assert [a.to_dict() for a in offline] == \
            [a.to_dict() for a in monitor.alerts]


class TestTraceByteIdentity:
    def test_monitor_does_not_change_trace_bytes(self, tmp_path, clean_run):
        # same seeded run without any monitor: the traces must be
        # byte-identical — the sink only observes, never emits
        _, _, monitored_path = clean_run
        bare_path = tmp_path / "bare.jsonl"
        run_traced(bare_path)
        a, b = monitored_path.read_bytes(), bare_path.read_bytes()
        assert len(a) > 0
        assert a == b


class TestStrictMode:
    def test_strict_sink_raises_at_flush(self):
        hub = Telemetry()
        monitor = Monitor(MonitorConfig(strict=True)).install(hub)
        hub.event("fifl.round", {"round": 0, "rep_min": -2.0, "rep_max": 0.5})
        with pytest.raises(MonitorError) as err:
            hub.flush()
        assert "reputation-bounds" in str(err.value)
        assert err.value.alerts[0].rule == "reputation-bounds"
        monitor.uninstall()

    def test_non_strict_sink_accumulates(self):
        hub = Telemetry()
        monitor = Monitor(MonitorConfig()).install(hub)
        hub.event("fifl.round", {"round": 0, "rep_min": -2.0, "rep_max": 0.5})
        hub.flush()
        assert len(monitor.alerts) == 1
        monitor.uninstall()


class TestHubWiring:
    def test_install_is_idempotent(self):
        hub = Telemetry()
        monitor = Monitor(MonitorConfig())
        monitor.install(hub)
        monitor.install(hub)
        assert hub.sinks.count(monitor) == 1
        monitor.uninstall()
        monitor.uninstall()
        assert monitor not in hub.sinks

    def test_swapping_monitors_redirects_events(self):
        # regression: the hub caches bound sink emits; replacing one
        # monitor with another (same sink count) must invalidate it
        hub = Telemetry()
        bad = {"round": 0, "rep_min": -2.0, "rep_max": 0.5}
        first = Monitor(MonitorConfig()).install(hub)
        hub.event("fifl.round", bad)
        hub.flush()
        first.uninstall()
        second = Monitor(MonitorConfig()).install(hub)
        hub.event("fifl.round", bad)
        hub.flush()
        second.uninstall()
        assert len(first.alerts) == 1
        assert len(second.alerts) == 1

    def test_monitor_events_do_not_reach_hub_memory(self):
        # Monitor is not a MemorySink subclass: Telemetry.events() must
        # not pick it up as an event source
        hub = Telemetry()
        monitor = Monitor(MonitorConfig()).install(hub)
        hub.event("fifl.round", {"round": 0, "rep_min": 0.0, "rep_max": 2.0})
        hub.flush()
        assert len(monitor.alerts) == 1
        types = {ev["type"] for ev in hub.events()}
        assert types == {"fifl.round"}
        monitor.uninstall()


class TestTrainerWiring:
    def test_trainer_runs_monitor_and_dumps_on_exception(self, tmp_path):
        from repro.datasets import iid_partition, make_blobs, train_test_split
        from repro.fl import FederatedTrainer, HonestWorker
        from repro.nn import build_logreg

        data = make_blobs(n_samples=240, n_features=8, num_classes=3, seed=0)
        train, test = train_test_split(data, test_fraction=0.2, seed=0)
        shards = iid_partition(train, 4, seed=0)
        model_fn = lambda: build_logreg(8, 3, seed=0)
        workers = [
            HonestWorker(i, shards[i], model_fn, lr=0.1, seed=100 + i)
            for i in range(4)
        ]
        monitor = Monitor(MonitorConfig(postmortem_dir=str(tmp_path),
                                        run_id="boom"))
        # fresh global hub: the trainer binds get_profiler() at
        # construction, and a shared suite-wide hub may carry another
        # test's pending events into this monitor
        hub = Telemetry(sinks=[MemorySink()])
        previous = set_telemetry(hub)
        try:
            trainer = FederatedTrainer(
                model=build_logreg(8, 3, seed=0),
                population=WorkerPopulation.from_workers(workers),
                server_ranks=[0, 1],
                test_data=test,
                monitor=monitor,
            )

            calls = {"n": 0}
            original = trainer.run_round

            def exploding_round(t):
                calls["n"] += 1
                if calls["n"] >= 3:
                    raise RuntimeError("mid-training crash")
                return original(t)

            trainer.run_round = exploding_round
            with pytest.raises(RuntimeError, match="mid-training crash"):
                trainer.run(num_rounds=6)
        finally:
            set_telemetry(previous)
        dump = tmp_path / "postmortem-boom.jsonl"
        assert dump.exists()
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["type"] == "postmortem"
        assert "RuntimeError" in header["reason"]
        # the trainer detached the monitor on the way out
        assert monitor not in hub.sinks


class TestRunnerWiring:
    def _fake_figure(self, monkeypatch, alerting):
        """Register a stub figure that optionally emits a violating event."""
        from repro.experiments import runner as runner_mod
        from repro.telemetry import get_telemetry

        class Spec:
            fig_id = "figx"
            title = "stub"

            def run(self, fast):
                if alerting:
                    get_telemetry().event(
                        "fifl.round",
                        {"round": 0, "rep_min": -5.0, "rep_max": 0.5},
                    )
                return {"value": 1}, ["row"]

        monkeypatch.setitem(runner_mod.FIGURES, "figx", Spec())
        return runner_mod

    def test_meta_alerts_block_and_strict_exit(self, monkeypatch, tmp_path,
                                               capsys):
        runner_mod = self._fake_figure(monkeypatch, alerting=True)
        rc = runner_mod.main(
            ["--figures", "figx", "--out", str(tmp_path), "--strict"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--strict" in err and "monitor alert" in err
        meta = json.loads((tmp_path / "figx.json").read_text())["_meta"]
        assert meta["alerts"]["total"] == 1
        assert meta["alerts"]["by_rule"] == {"reputation-bounds": 1}
        # the alert also produced a post-mortem next to the results
        assert (tmp_path / "postmortem-figx.jsonl").exists()

    def test_clean_figure_passes_strict(self, monkeypatch, tmp_path, capsys):
        runner_mod = self._fake_figure(monkeypatch, alerting=False)
        rc = runner_mod.main(
            ["--figures", "figx", "--out", str(tmp_path), "--strict"]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "figx.json").read_text())["_meta"]
        assert meta["alerts"]["total"] == 0
