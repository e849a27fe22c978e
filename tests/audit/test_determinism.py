"""Audit determinism: seeded experiment and kill/resume byte-identity.

The acceptance contract of the audit layer: on seeded runs (fig09- and
fig11-style attacker federations, and a checkpointed service that is
killed and resumed), the decision lineage reconstructed offline from
the telemetry trace equals the live mechanism's records byte-for-byte,
and the full verification battery passes.
"""

import pytest

from repro.audit import (
    collect_decisions,
    decisions_from_trace,
    encode_decision,
    verify_service,
    verify_trace,
)
from repro.experiments.common import probabilistic, run_federated, sign_flip
from repro.ledger import Blockchain
from repro.service import FederationService
from repro.service.cli import make_preset
from repro.telemetry import (
    MemorySink,
    Telemetry,
    TickClock,
    get_telemetry,
    set_telemetry,
)

ROUNDS = 10
CHECKPOINT_EVERY = 5


@pytest.fixture(autouse=True)
def _private_hub():
    prev = get_telemetry()
    yield
    set_telemetry(prev)


def _fresh_hub():
    sink = MemorySink(maxlen=None)
    return Telemetry(sinks=[sink], clock=TickClock()), sink


def run_experiment_traced(attackers_fn):
    """One scaled seeded federation; returns (mechanism, events)."""
    from repro.experiments.fig11_reputation import default_config

    cfg = default_config().scaled(
        num_workers=6,
        samples_per_worker=40,
        test_samples=50,
        rounds=5,
        eval_every=5,
    )
    hub, sink = _fresh_hub()
    set_telemetry(hub)
    _, mech = run_federated(cfg, attackers_fn(cfg), with_fifl=True)
    hub.flush()
    return mech, list(sink.events)


def fig09_attackers(cfg):
    """Sign-flip attackers on the tail ids (fig09's threat model)."""
    return {cfg.num_workers - 1: sign_flip(4.0)}


def fig11_attackers(cfg):
    """Probabilistic attackers at several p_a (fig11's threat model)."""
    return {
        cfg.num_workers - 2: probabilistic(0.4, 4.0),
        cfg.num_workers - 1: probabilistic(0.8, 4.0),
    }


class TestSeededExperiments:
    @pytest.mark.parametrize(
        "attackers_fn", [fig09_attackers, fig11_attackers],
        ids=["fig09-signflip", "fig11-probabilistic"],
    )
    def test_offline_lineage_equals_live_records(self, attackers_fn):
        mech, events = run_experiment_traced(attackers_fn)
        live = [encode_decision(d) for d in collect_decisions(mech)]
        offline = [
            encode_decision(d) for d in decisions_from_trace(events)
        ]
        assert len(live) > 0
        assert live == offline

    def test_trace_verifies_clean(self):
        _, events = run_experiment_traced(fig09_attackers)
        report = verify_trace(events)
        assert report.ok, [c.detail for c in report.failures()]


class TestKillResume:
    @pytest.fixture(scope="class")
    def service_run(self, tmp_path_factory):
        """Clean run vs killed+resumed run of the blobs-fifl preset."""
        root = tmp_path_factory.mktemp("audit-service")

        hub, sink = _fresh_hub()
        prev = set_telemetry(hub)
        try:
            clean = FederationService(
                make_preset("blobs-fifl", rounds=ROUNDS,
                            checkpoint_every=CHECKPOINT_EVERY),
                root / "clean",
            )
            clean.run()
            hub.flush()
            clean_events = list(sink.events)

            hub1, sink1 = _fresh_hub()
            set_telemetry(hub1)
            part1 = FederationService(
                make_preset("blobs-fifl", rounds=ROUNDS,
                            checkpoint_every=CHECKPOINT_EVERY),
                root / "killed",
            )
            part1.run(until_round=CHECKPOINT_EVERY)
            hub1.flush()

            hub2, sink2 = _fresh_hub()
            set_telemetry(hub2)
            part2 = FederationService.resume(root / "killed")
            part2.run()
            hub2.flush()
            resumed_events = list(sink1.events) + list(sink2.events)
        finally:
            set_telemetry(prev)
        return clean_events, resumed_events, root / "killed"

    def test_resumed_lineage_equals_uninterrupted(self, service_run):
        clean_events, resumed_events, _ = service_run
        clean = [
            encode_decision(d) for d in decisions_from_trace(clean_events)
        ]
        resumed = [
            encode_decision(d) for d in decisions_from_trace(resumed_events)
        ]
        assert len(clean) > 0
        assert clean == resumed

    def test_resumed_trace_verifies_strict(self, service_run):
        _, resumed_events, snap_dir = service_run
        report = verify_trace(resumed_events)
        verify_service(resumed_events, snap_dir, report=report)
        assert report.ok_strict(), [
            (c.name, c.status, c.detail)
            for c in report.checks if c.status != "pass"
        ]

    def test_service_pass_verifies_chain_once(self, service_run, monkeypatch):
        _, resumed_events, snap_dir = service_run
        calls = []
        verify = Blockchain.verify

        def counted(chain):
            calls.append(len(chain))
            return verify(chain)

        monkeypatch.setattr(Blockchain, "verify", counted)
        report = verify_service(resumed_events, snap_dir)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["ledger-durable"] == "pass"
        assert statuses["reputation-replay"] == "pass"
        assert len(calls) == 1 and calls[0] > 0
