"""``python -m repro.trace`` lineage subcommands: exit codes, JSON output."""

import json

import pytest

from repro.trace import main
from repro.telemetry.sinks import encode_event

from .conftest import ATTACKER, ROUNDS


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    from .conftest import run_traced

    _, _, events = run_traced()
    path = tmp_path_factory.mktemp("audit-cli") / "trace.jsonl"
    with open(path, "w") as fh:
        for ev in events:
            fh.write(encode_event(ev) + "\n")
    return path


@pytest.fixture(scope="module")
def split_traces(trace_path, tmp_path_factory):
    """The same trace split in two files (a kill/resume concatenation)."""
    lines = trace_path.read_text().splitlines()
    mid = len(lines) // 2
    root = tmp_path_factory.mktemp("audit-cli-split")
    a, b = root / "a.jsonl", root / "b.jsonl"
    a.write_text("\n".join(lines[:mid]) + "\n")
    b.write_text("\n".join(lines[mid:]) + "\n")
    return a, b


class TestExplain:
    def test_explains_a_decision(self, trace_path, capsys):
        rc = main(["explain", str(trace_path), "--worker", "0",
                   "--round", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worker 0" in out
        assert "round 1" in out

    def test_json_payload_carries_exact_numbers(self, trace_path, capsys):
        rc = main(["explain", str(trace_path), "--worker",
                   str(ATTACKER), "--round", "0", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worker"] == ATTACKER
        assert payload["verdict"] in {"ACCEPTED", "FLAGGED", "UNCERTAIN"}
        assert payload["reward"]["amount"] == (
            payload["contribution"]["share"] * payload["reward"]["budget"]
        )

    def test_missing_decision_is_usage_error(self, trace_path, capsys):
        rc = main(["explain", str(trace_path), "--worker", "42",
                   "--round", "0"])
        assert rc == 2
        assert "no decision" in capsys.readouterr().err


class TestWorkerAndRound:
    def test_worker_timeline_covers_every_round(self, trace_path, capsys):
        rc = main(["worker", str(trace_path), "--worker", "0", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [d["round"] for d in payload["decisions"]] == list(
            range(ROUNDS)
        )

    def test_round_table_lists_all_workers(self, trace_path, capsys):
        rc = main(["round", str(trace_path), "--round", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(d["worker"] for d in payload["decisions"]) == [
            0, 1, 2, 3, 4,
        ]


class TestFairness:
    def test_table_output(self, trace_path, capsys):
        rc = main(["fairness", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cumulative reward Gini" in out

    def test_attacker_split_via_flag(self, trace_path, capsys):
        rc = main(["fairness", str(trace_path), "--attackers",
                   str(ATTACKER), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["groups"]["attacker"]["workers"] == 1


class TestVerify:
    def test_clean_trace_passes(self, trace_path, capsys):
        rc = main(["verify", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failed" in out

    def test_strict_fails_without_dir(self, trace_path):
        # the snapshot-continuity check can only be skipped, and strict
        # counts a skip as a failure
        assert main(["verify", str(trace_path), "--strict"]) == 1

    def test_split_trace_concatenates(self, split_traces, capsys):
        a, b = split_traces
        rc = main(["verify", str(a), str(b), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True


class TestTraceErrors:
    def test_unreadable_trace(self, tmp_path, capsys):
        rc = main(["verify", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_truncated_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "fifl.round", "data"')
        rc = main(["verify", str(path)])
        assert rc == 2
        assert "not valid JSONL" in capsys.readouterr().err

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["verify", str(path)])
        assert rc == 2
        assert "no events" in capsys.readouterr().err
