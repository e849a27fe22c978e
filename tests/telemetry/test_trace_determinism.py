"""Seeded runs must write byte-identical JSONL traces.

The whole stack is seeded and the telemetry clock is injectable, so a
fig09-style experiment driven with a :class:`TickClock` is a pure
function of its config: every span duration, every mechanism event and
every sequence number must reproduce exactly. The trace file therefore
works as a regression fixture — any byte of drift is a real behavior
change (ordering, control flow, or schema), never noise.
"""

import pytest

from repro.experiments.fig09_detection import default_config, run
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    TickClock,
    set_telemetry,
)
from repro.trace import main as trace_main


def tiny_config():
    return default_config().scaled(
        poison_rates=(0.5,),
        thresholds=(0.0,),
        tradeoff_thresholds=(0.0, 0.2),
        num_workers=6,
        samples_per_worker=40,
        test_samples=50,
        rounds=3,
        eval_every=3,
    )


def run_traced(path):
    """One scaled fig09 run with a fresh deterministic hub tracing to ``path``."""
    tele = Telemetry(
        sinks=[MemorySink(), JsonlSink(path)], clock=TickClock()
    )
    previous = set_telemetry(tele)
    try:
        run(tiny_config())
    finally:
        tele.close()
        set_telemetry(previous)
    return tele


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("traces")
    paths = (root / "a.jsonl", root / "b.jsonl")
    for path in paths:
        run_traced(path)
    return paths


class TestTraceDeterminism:
    def test_seeded_traces_are_byte_identical(self, traces):
        a, b = (path.read_bytes() for path in traces)
        assert len(a) > 0
        assert a == b

    def test_trace_covers_the_whole_hierarchy(self, traces):
        from repro.telemetry import read_trace

        events = read_trace(traces[0])
        names = {ev["name"] for ev in events if ev["type"] == "span"}
        # run -> round -> phase spans all present
        assert "trainer.run" in names
        assert "trainer.round" in names
        assert "trainer.mechanism" in names
        rounds = [ev for ev in events if ev["type"] == "fifl.round"]
        assert rounds, "mechanism emitted no per-round events"
        assert all("reward_gini" in ev["data"] for ev in rounds)
        seqs = [ev["seq"] for ev in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def run_fault_traced(path):
    """A seeded fault scenario (latency + stragglers + churn) under trace."""
    from repro.experiments.sim_churn import default_config as churn_config
    from repro.experiments.sim_churn import run as churn_run

    tele = Telemetry(
        sinks=[MemorySink(), JsonlSink(path)], clock=TickClock()
    )
    previous = set_telemetry(tele)
    try:
        churn_run(
            churn_config().scaled(
                rounds=6, eval_every=6, samples_per_worker=40, test_samples=50
            )
        )
    finally:
        tele.close()
        set_telemetry(previous)


class TestFaultScenarioTraceDeterminism:
    """Same seed + scenario => byte-identical JSONL trace (tentpole contract)."""

    @pytest.fixture(scope="class")
    def fault_traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fault-traces")
        paths = (root / "a.jsonl", root / "b.jsonl")
        for path in paths:
            run_fault_traced(path)
        return paths

    def test_fault_traces_are_byte_identical(self, fault_traces):
        a, b = (path.read_bytes() for path in fault_traces)
        assert len(a) > 0
        assert a == b

    def test_trace_carries_sim_round_events(self, fault_traces):
        from repro.telemetry import read_trace

        events = read_trace(fault_traces[0])
        sim_rounds = [ev for ev in events if ev["type"] == "sim.round"]
        assert sim_rounds, "simulated run emitted no sim.round events"
        assert all("duration_s" in ev["data"] for ev in sim_rounds)
        # the churn scenario actually exercised the fault paths
        assert any(ev["data"]["offline"] for ev in sim_rounds)


class TestSummarizeCli:
    def test_renders_round_table_and_phase_breakdown(self, traces, capsys):
        assert trace_main(["summary", str(traces[0])]) == 0
        out = capsys.readouterr().out
        assert "trace summary (schema v1)" in out
        assert "reward_gini" in out
        assert "share_entropy" in out
        assert "flagged" in out
        assert "phase time breakdown:" in out
        assert "trainer.round" in out

    def test_json_mode_emits_machine_readable_summary(self, traces, capsys):
        import json

        assert trace_main(["summary", str(traces[0]), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema_version"] == 1
        assert summary["rounds"] > 0
        assert summary["reward_gini_mean"] is not None
        assert "trainer.round" in summary["spans"]

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert trace_main(["summary", str(tmp_path / "no.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err
