"""Offline lineage reconstruction: the byte-identity contract."""

import numpy as np
import pytest

from repro.audit import (
    AuditError,
    cohort_samples,
    collect_decisions,
    decisions_from_trace,
    encode_decision,
    inputs_from_payload,
    round_payloads,
    skipped_rounds,
    verify_trace,
)
from repro.core import make_mechanism
from repro.fl import LocalUpdates
from repro.telemetry import MemorySink, Telemetry

from tests.helpers import round_context

from .conftest import run_traced


def fifl_round_event(t, **over):
    data = {
        "round": t,
        "scores": {"0": 0.5, "1": -0.8},
        "flagged": [1],
        "accepted": 1,
        "uncertain": [],
        "threshold": 0.0,
        "budget": 10.0,
        "reputations": {"0": 0.3, "1": 0.0},
        "contributions": {"0": 1.0, "1": 0.0},
        "shares": {"0": 0.1, "1": -0.02},
        "rewards": {"0": 1.0, "1": -0.2},
        "b_h": 1.0,
        "initial_reputation": 0.0,
    }
    data.update(over)
    return {"v": 1, "seq": t, "type": "fifl.round", "data": data}


class TestRoundPayloads:
    def test_first_occurrence_wins_for_exact_duplicates(self):
        ev = fifl_round_event(0)
        rounds, forks = round_payloads([ev, dict(ev)])
        assert list(rounds) == [0]
        assert forks == []

    def test_conflicting_duplicate_is_a_fork(self):
        a = fifl_round_event(0)
        b = fifl_round_event(0, rewards={"0": 99.0, "1": -0.2})
        rounds, forks = round_payloads([a, b])
        assert forks == [0]
        with pytest.raises(AuditError, match="lineage fork"):
            decisions_from_trace([a, b])

    def test_non_round_events_ignored(self):
        rounds, _ = round_payloads(
            [{"type": "span", "name": "x"}, fifl_round_event(2)]
        )
        assert list(rounds) == [2]


class TestInputsFromPayload:
    def test_string_keys_normalized_to_int(self):
        inp = inputs_from_payload(fifl_round_event(0)["data"])
        assert set(inp.scores) == {0, 1}
        assert inp.accepted == {0: True, 1: False}
        assert inp.reputations[0] == 0.3

    def test_missing_attribution_payload_raises(self):
        data = fifl_round_event(0)["data"]
        del data["reputations"]
        with pytest.raises(AuditError, match="audit=False"):
            inputs_from_payload(data)

    def test_audit_off_trace_is_not_reconstructable(self):
        _, _, events = run_traced(rounds=2, with_ledger=False, audit=False)
        with pytest.raises(AuditError, match="audit=False"):
            decisions_from_trace(events)


class TestByteIdentity:
    def test_offline_equals_live_byte_for_byte(self, traced):
        # the tentpole contract: reconstruction from the trace alone is
        # byte-for-byte the lineage the live mechanism produced
        mech, _, events = traced
        live = [encode_decision(d) for d in collect_decisions(mech)]
        offline = [
            encode_decision(d) for d in decisions_from_trace(events)
        ]
        assert len(live) > 0
        assert live == offline

    def test_offline_equals_live_at_256_workers(self):
        # synthetic rounds at the audit overhead gate's scale: 256
        # workers, 4 servers, every fifth worker deviating, one lost slice
        rng = np.random.default_rng(0)
        sink = MemorySink(maxlen=None)
        mech = make_mechanism("fifl", threshold=0.0, gamma=0.2)
        mech.profiler = Telemetry(sinks=[sink])
        ids = np.arange(256, dtype=np.int64)
        for t in range(4):
            grads = rng.standard_normal(64) + 0.3 * rng.standard_normal((256, 64))
            grads[::5] *= -2.0
            grads.flags.writeable = False
            local = LocalUpdates(
                worker_ids=ids, gradients=grads,
                sample_counts=np.full(256, 100, dtype=np.int64),
                attacked=np.zeros(256, dtype=bool),
            )
            mech.process_round(
                round_context(t, np.zeros(64), [0, 1, 2, 3], local, uncertain=[4])
            )
        mech.profiler.flush()
        events = list(sink.events)
        live = [encode_decision(d) for d in collect_decisions(mech)]
        offline = [encode_decision(d) for d in decisions_from_trace(events)]
        assert len(live) == 4 * 256
        assert live == offline
        assert verify_trace(events).ok

    def test_reconstruction_is_order_independent(self, traced):
        _, _, events = traced
        reference = [
            encode_decision(d) for d in decisions_from_trace(events)
        ]
        reversed_events = list(reversed(events))
        assert [
            encode_decision(d) for d in decisions_from_trace(reversed_events)
        ] == reference

    def test_segmented_trace_reconstructs_identically(self, traced):
        # a killed run's trace plus its resume's trace is a concatenation;
        # splitting the stream anywhere must not change the lineage
        _, _, events = traced
        reference = [
            encode_decision(d) for d in decisions_from_trace(events)
        ]
        mid = len(events) // 2
        concatenated = events[:mid] + events[mid:]
        assert [
            encode_decision(d) for d in decisions_from_trace(concatenated)
        ] == reference


class TestSideStreams:
    def test_skipped_rounds_extracted(self):
        events = [
            {"type": "trainer.skipped_round",
             "data": {"round": 4, "reason": "empty_cohort"}},
            fifl_round_event(5),
        ]
        assert skipped_rounds(events) == {4: "empty_cohort"}

    def test_cohort_samples_extracted(self):
        events = [
            {"type": "population.cohort",
             "data": {"round": 0, "population_size": 64, "sampled": 16,
                      "live": 14, "coverage": 0.25}},
        ]
        samples = cohort_samples(events)
        assert samples[0]["population_size"] == 64
