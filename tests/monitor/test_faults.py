"""Fault-injection end-to-end tests.

Each alarm must demonstrably fire under its fault — tampered ledger,
churn, a hand-broken reward vector — and stay silent on clean seeded
figure configs. The sign-flip → margin-collapse pairing lives in
``test_monitor.py`` next to the offline/online differential.
"""

import json
from contextlib import contextmanager

import pytest

from repro.monitor import Monitor, MonitorConfig, scan_events
from repro.telemetry import MemorySink, Telemetry, TickClock, set_telemetry
from repro.telemetry.sinks import encode_event

GAMMA = 0.2


@contextmanager
def monitored_hub(config=None):
    """Fresh deterministic hub with a monitor sink installed."""
    tele = Telemetry(sinks=[MemorySink()], clock=TickClock())
    monitor = Monitor(config or MonitorConfig()).install(tele)
    previous = set_telemetry(tele)
    try:
        yield tele, monitor
    finally:
        tele.close()
        monitor.uninstall()
        set_telemetry(previous)


def rules_fired(monitor):
    return {a.rule for a in monitor.alerts}


class TestLedgerCommitEvents:
    def test_append_emits_linked_commit_events(self):
        from repro.ledger import Blockchain

        with monitored_hub() as (tele, monitor):
            chain = Blockchain()
            for t in range(3):
                chain.append(
                    {"round": t, "accepted": {0: True}, "reputations": {0: 0.5}},
                    signer="server-A",
                )
            tele.flush()
            commits = [
                ev for ev in tele.events() if ev["type"] == "ledger.commit"
            ]
        assert [ev["data"]["index"] for ev in commits] == [0, 1, 2]
        assert [ev["data"]["round"] for ev in commits] == [0, 1, 2]
        # the hash chain is visible in the event stream itself
        assert commits[1]["data"]["prev_hash"] == commits[0]["data"]["hash"]
        assert commits[2]["data"]["prev_hash"] == commits[1]["data"]["hash"]
        # a well-linked chain keeps the ledger-chain watchdog silent
        assert monitor.ok


class TestTamperedLedgerAudit:
    def _build_chain(self, outcomes_per_round, signer="server-A"):
        from repro.core import DecayReputation
        from repro.ledger import Blockchain

        from tests.helpers import reputation_round

        chain = Blockchain()
        rep = DecayReputation(gamma=GAMMA)
        for t, outcomes in enumerate(outcomes_per_round):
            reps = reputation_round(rep, outcomes)
            chain.append(
                {"round": t, "accepted": outcomes, "reputations": reps},
                signer=signer,
            )
        return chain

    def test_rewritten_reputation_trips_audit_alert(self):
        from repro.ledger import Blockchain, audit_reputation

        honest = self._build_chain(
            [{0: False}, {0: False}, {0: False}], signer="evil-server"
        )
        boosted = {**honest[1].payload, "reputations": {"0": 0.95}}
        with monitored_hub() as (tele, monitor):
            evil = Blockchain()
            evil.append(honest[0].payload, signer="evil-server")
            evil.append(boosted, signer="evil-server")
            evil.append(honest[2].payload, signer="evil-server")
            assert evil.is_intact()  # signatures fine — only replay catches it
            report = audit_reputation(evil, worker=0, gamma=GAMMA)
            tele.flush()
        assert not report.clean
        assert "ledger-audit" in rules_fired(monitor)
        alert = next(a for a in monitor.alerts if a.rule == "ledger-audit")
        assert alert.data["findings"]
        assert alert.data["findings"][0]["signer"] == "evil-server"

    def test_clean_audit_stays_silent(self):
        from repro.ledger import audit_reputation

        chain = self._build_chain([{0: True}, {0: False}, {0: True}])
        with monitored_hub() as (tele, monitor):
            report = audit_reputation(chain, worker=0, gamma=GAMMA)
            tele.flush()
        assert report.clean
        assert monitor.ok


class TestChurnSlo:
    def test_churn_scenario_trips_slo_alert(self):
        from repro.experiments.sim_churn import default_config as churn_config
        from repro.experiments.sim_churn import run as churn_run

        with monitored_hub() as (tele, monitor):
            churn_run(
                churn_config().scaled(
                    rounds=6, eval_every=6,
                    samples_per_worker=40, test_samples=50,
                )
            )
            tele.flush()
            degraded = [
                ev for ev in tele.events()
                if ev["type"] == "sim.round"
                and (ev["data"].get("late") or ev["data"].get("offline"))
            ]
        # the scenario really does degrade rounds, and the SLO rate
        # detector turns that into an alert
        assert degraded
        assert "slo-degraded" in rules_fired(monitor)
        # the fault never corrupts the comm accounting
        assert "comm-accounting" not in rules_fired(monitor)


class TestBrokenRewardVector:
    @pytest.fixture(scope="class")
    def clean_events(self):
        """JSON-replay spelling of a tiny clean federated run's trace."""
        from repro.experiments.common import run_federated
        from repro.experiments.fig09_detection import _default_fed

        tele = Telemetry(sinks=[MemorySink()], clock=TickClock())
        previous = set_telemetry(tele)
        try:
            run_federated(
                _default_fed().scaled(
                    rounds=6, num_workers=6,
                    samples_per_worker=40, test_samples=50,
                ),
                with_fifl=True,
            )
        finally:
            tele.close()
            set_telemetry(previous)
        return [json.loads(encode_event(ev)) for ev in tele.events()]

    def test_unmodified_trace_is_silent(self, clean_events):
        assert scan_events(clean_events) == []

    def test_scaled_rewards_break_budget_conservation(self, clean_events):
        broken = json.loads(json.dumps(clean_events))
        tampered = 0
        for ev in broken:
            if ev["type"] != "fifl.round":
                continue
            rewards = ev["data"]["rewards"]
            if any(v > 0 for v in rewards.values()):
                ev["data"]["rewards"] = {
                    w: 10.0 * v for w, v in rewards.items()
                }
                tampered += 1
        assert tampered > 0
        alerts = scan_events(broken)
        rules = {a.rule for a in alerts}
        assert "budget-conservation" in rules
        first = next(a for a in alerts if a.rule == "budget-conservation")
        assert first.kind == "invariant"
        assert first.data["budget"] == pytest.approx(
            next(
                ev["data"]["budget"] for ev in broken
                if ev["type"] == "fifl.round"
            )
        )


class TestCleanFigureConfigs:
    def test_fig11_config_without_attackers_is_silent(self):
        # fig09's clean config is the test_monitor.py module fixture;
        # this covers the other seeded figure config from the checklist
        from repro.experiments.common import run_federated
        from repro.experiments.fig11_reputation import default_config

        cfg = default_config().scaled(
            rounds=10, num_workers=6, samples_per_worker=40,
            test_samples=50, eval_every=10,
        )
        with monitored_hub() as (tele, monitor):
            run_federated(cfg, with_fifl=True)
            tele.flush()
        assert monitor.ok, [a.to_dict() for a in monitor.alerts]
