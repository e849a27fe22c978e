"""Tests for the reputation audit protocol (S4.5)."""

import pytest

from repro.core import DecayReputation, DetectionConfig, FIFLConfig, FIFLMechanism
from repro.fl import FederatedTrainer
from repro.ledger import Blockchain, audit_reputation
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.telemetry import JsonlSink, Telemetry, read_trace, set_telemetry

from tests.helpers import N_CLASSES, N_FEATURES, make_federation, reputation_round

GAMMA = 0.2


def build_chain(outcomes_per_round, gamma=GAMMA, signer="server-A"):
    """Construct a ledger of FIFL round records from detection outcomes."""
    chain = Blockchain()
    rep = DecayReputation(gamma=gamma)
    for t, outcomes in enumerate(outcomes_per_round):
        reps = reputation_round(rep, outcomes)
        chain.append(
            {"round": t, "accepted": outcomes, "reputations": reps},
            signer=signer,
        )
    return chain


class TestCleanAudit:
    def test_honest_ledger_passes(self):
        chain = build_chain([{0: True}, {0: True}, {0: False}, {0: True}])
        report = audit_reputation(chain, worker=0, gamma=GAMMA)
        assert report.clean
        assert report.rounds_checked == 4

    def test_uncertain_events_replayed(self):
        chain = build_chain([{0: True}, {0: None}, {0: True}])
        report = audit_reputation(chain, worker=0, gamma=GAMMA)
        assert report.clean

    def test_untracked_worker_zero_rounds(self):
        chain = build_chain([{0: True}])
        report = audit_reputation(chain, worker=7, gamma=GAMMA)
        assert report.clean
        assert report.rounds_checked == 0


class TestManipulationDetected:
    def test_inflated_reputation_found_and_attributed(self):
        chain = build_chain(
            [{0: False}, {0: False}, {0: False}], signer="evil-server"
        )
        # the evil server rewrites round 1's reputation upward, re-signing
        # legitimately (it holds its own key), so the chain still verifies
        blk = chain[1]
        boosted = dict(blk.payload)
        boosted = {**boosted, "reputations": {"0": 0.95}}
        # rebuild chain with the manipulated middle record
        evil = Blockchain()
        evil.append(chain[0].payload, signer="evil-server")
        evil.append(boosted, signer="evil-server")
        evil.append(chain[2].payload, signer="evil-server")
        assert evil.is_intact()  # signatures fine - only replay catches it

        report = audit_reputation(evil, worker=0, gamma=GAMMA)
        assert not report.clean
        assert len(report.findings) == 1
        assert report.findings[0].round_idx == 1
        assert report.implicated_signers() == {"evil-server"}

    def test_single_bad_round_does_not_cascade(self):
        chain = build_chain([{0: True}] * 5)
        # tamper only round 2 (payload rewrite without re-signing)
        tampered_payload = dict(chain[2].payload)
        tampered_payload["reputations"] = {"0": 0.0}
        chain.tamper(2, tampered_payload)
        report = audit_reputation(chain, worker=0, gamma=GAMMA)
        assert not report.chain_intact
        assert [f.round_idx for f in report.findings] == [2]

    def test_nan_record_is_a_finding(self):
        # NaN compares false against any tolerance; it must not pass clean
        chain = build_chain([{0: True}])
        chain.append(
            {"round": 1, "accepted": {0: True}, "reputations": {0: float("nan")}},
            signer="server-A",
        )
        report = audit_reputation(chain, worker=0, gamma=GAMMA)
        assert chain.is_intact()
        assert not report.clean
        assert [f.round_idx for f in report.findings] == [1]

    def test_non_finite_finding_survives_a_jsonl_trace(self, tmp_path):
        chain = build_chain([{0: True}])
        chain.append(
            {"round": 1, "accepted": {0: True}, "reputations": {0: float("inf")}},
            signer="server-A",
        )
        tele = Telemetry(sinks=[JsonlSink(tmp_path / "t.jsonl")])
        previous = set_telemetry(tele)
        try:
            audit_reputation(chain, worker=0, gamma=GAMMA)
        finally:
            tele.close()
            set_telemetry(previous)
        (event,) = [e for e in read_trace(tmp_path / "t.jsonl")
                    if e["type"] == "ledger.audit"]
        assert event["data"]["findings"][0]["recorded"] == "inf"

    def test_wrong_gamma_flags_everything(self):
        # auditing with a different gamma than declared mismatches at once
        chain = build_chain([{0: True}, {0: True}], gamma=0.2)
        report = audit_reputation(chain, worker=0, gamma=0.5)
        assert not report.clean


class TestEndToEndWithMechanism:
    def test_fifl_ledger_audits_clean(self):
        workers, _, test = make_federation(num_workers=4)
        chain = Blockchain()
        mech = FIFLMechanism(
            FIFLConfig(detection=DetectionConfig(threshold=0.0), gamma=0.3),
            ledger=chain,
        )
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            mechanism=mech, server_lr=0.1,
        )
        trainer.run(8, eval_every=8)
        assert len(chain) == 8
        assert chain.is_intact()
        for wid in range(4):
            report = audit_reputation(chain, worker=wid, gamma=0.3)
            assert report.clean, f"worker {wid} audit failed: {report.findings}"
            assert report.rounds_checked == 8


class TestEdgeCases:
    """Boundary shapes the resumable-service audit path produces."""

    def test_empty_chain_is_trivially_clean(self):
        report = audit_reputation(Blockchain(), worker=0, gamma=GAMMA)
        assert report.clean
        assert report.rounds_checked == 0
        assert report.findings == []
        assert report.implicated_signers() == set()

    def test_single_identity_chain(self):
        # every block signed by the same server key — the degenerate
        # signer set a single-aggregator deployment produces
        chain = build_chain([{0: True}] * 3, signer="only-server")
        assert {b.signer for b in chain.blocks} == {"only-server"}
        report = audit_reputation(chain, worker=0, gamma=GAMMA)
        assert report.clean

        tampered = dict(chain[1].payload)
        tampered["reputations"] = {"0": 0.99}
        chain.tamper(1, tampered)
        report = audit_reputation(chain, worker=0, gamma=GAMMA)
        assert not report.clean
        assert report.implicated_signers() == {"only-server"}

    def test_post_resume_chain_head_links(self):
        # mirror the snapshot capture/restore dance: a resumed service
        # rebuilds the chain from copied block/identity state, then keeps
        # appending — the head must carry over so the restored chain is
        # one contiguous lineage, not a fresh genesis
        chain = build_chain([{0: True}, {0: False}])
        head = chain.head_hash()

        restored = Blockchain()
        restored._blocks = list(chain._blocks)
        restored._identities = dict(chain._identities)
        assert restored.head_hash() == head
        assert restored.is_intact()

        rep = DecayReputation(gamma=GAMMA)
        rep.update(0, True)
        rep.update(0, False)
        reps = reputation_round(rep, {0: True})
        blk = restored.append(
            {"round": 2, "accepted": {0: True}, "reputations": reps},
            signer="server-A",
        )
        assert blk.prev_hash == head
        assert restored.is_intact()
        report = audit_reputation(restored, worker=0, gamma=GAMMA)
        assert report.clean
        assert report.rounds_checked == 3
