"""Regression tests: ``trace summary`` and ``trace worker`` degrade gracefully.

A crashed producer routinely leaves an empty or mid-record-truncated
trace behind. A cut last line is dropped with a warning; an empty or
corrupt trace exits 2 with a clear diagnostic instead of a traceback.
"""

import json

from repro.trace import main as trace_main


class TestSummarizeDegradation:
    def test_empty_trace_exits_two_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert trace_main(["summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert "contains no events" in err
        assert "Traceback" not in err

    def test_truncated_tail_dropped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        good = {"v": 1, "seq": 1, "type": "fifl.round", "data": {"round": 0}}
        path.write_text(json.dumps(good) + "\n" + '{"v": 1, "se')
        assert trace_main(["summary", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "1 rounds" in out
        assert f"{path}:2: skipped 1 undecodable line" in err
        assert "not valid JSONL" in err
        assert len(err.splitlines()) == 1

    def test_garbage_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_text("not json at all\x00\x01")
        assert trace_main(["summary", str(path)]) == 2
        assert "not valid JSONL" in capsys.readouterr().err

    def test_whitespace_only_trace_counts_as_empty(self, tmp_path, capsys):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n\n")
        assert trace_main(["summary", str(path)]) == 2
        assert "contains no events" in capsys.readouterr().err

    def test_unknown_schema_version_warns(self, tmp_path, capsys):
        path = tmp_path / "v9.jsonl"
        ev = {"v": 9, "seq": 1, "type": "fifl.round", "data": {"round": 0}}
        path.write_text(json.dumps(ev) + "\n")
        assert trace_main(["summary", str(path)]) == 0
        assert "1 events with unknown schema version" in (
            capsys.readouterr().err
        )


def fifl_round_line(t, *, rewards=None, reputations=None):
    rewards = rewards if rewards is not None else {"0": 1.0, "1": -0.2}
    data = {
        "round": t,
        "scores": {"0": 0.5, "1": -0.8},
        "flagged": [1],
        "accepted": 1,
        "uncertain": [],
        "threshold": 0.0,
        "budget": 10.0,
        "rewards": rewards,
        "shares": {w: r / 10.0 for w, r in rewards.items()},
        "reputations": (
            reputations if reputations is not None else {"0": 0.3, "1": 0.0}
        ),
    }
    return json.dumps({"v": 1, "seq": t, "type": "fifl.round", "data": data})


class TestSummarizeWorker:
    """One worker's reward path, answered by ``trace worker``."""

    def write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_table_renders_trajectory(self, tmp_path, capsys):
        path = self.write(tmp_path, [
            fifl_round_line(0, reputations={"0": 0.3, "1": 0.0}),
            fifl_round_line(1, reputations={"0": 0.5, "1": 0.0}),
        ])
        assert trace_main(["worker", str(path), "--worker", "0"]) == 0
        out = capsys.readouterr().out
        assert "worker 0: 2 rounds" in out
        assert "cumulative reward 2" in out
        assert "final reputation 0.5" in out

    def test_flagged_worker_status(self, tmp_path, capsys):
        path = self.write(tmp_path, [fifl_round_line(0)])
        assert trace_main(["worker", str(path), "--worker", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 flagged" in out
        assert "FLAGGED" in out.splitlines()[-1]

    def test_json_trajectory(self, tmp_path, capsys):
        path = self.write(tmp_path, [fifl_round_line(0)])
        assert trace_main(
            ["worker", str(path), "--worker", "0", "--json"]
        ) == 0
        traj = json.loads(capsys.readouterr().out)
        assert traj["worker"] == 0
        assert traj["decisions"][0]["reward"] == 1.0
        assert traj["decisions"][0]["reputation"] == 0.3

    def test_unknown_worker_degrades_gracefully(self, tmp_path, capsys):
        path = self.write(tmp_path, [fifl_round_line(0)])
        assert trace_main(["worker", str(path), "--worker", "9"]) == 2
        err = capsys.readouterr().err
        assert "worker 9 appears in no round" in err
        assert "Traceback" not in err

    def test_skipped_only_trace_summarizes_cleanly(self, tmp_path, capsys):
        line = json.dumps({
            "v": 1, "seq": 0, "type": "trainer.skipped_round",
            "data": {"round": 0, "reason": "empty_cohort"},
        })
        path = self.write(tmp_path, [line])
        assert trace_main(["worker", str(path), "--worker", "0"]) == 0
        out = capsys.readouterr().out
        assert "no mechanism decisions" in out
        assert "only skipped rounds (1: 0:empty_cohort)" in out
