"""Tests for ``python -m repro.trace scan`` (offline replay + watch)."""

import json

import pytest

from repro.telemetry import read_trace
from repro.telemetry.sinks import TraceError, TraceTruncated
from repro.trace import main as monitor_cli


def write_trace(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")


def clean_event(seq=1, rnd=0):
    return {
        "v": 1, "seq": seq, "type": "fifl.round",
        "data": {"round": rnd, "rep_min": 0.2, "rep_max": 0.8},
    }


def violating_event(seq=2, rnd=0):
    return {
        "v": 1, "seq": seq, "type": "fifl.round",
        "data": {"round": rnd, "rep_min": -3.0, "rep_max": 0.8},
    }


@pytest.fixture
def clean_trace(tmp_path):
    path = tmp_path / "clean.jsonl"
    write_trace(path, [clean_event(seq=i, rnd=i) for i in range(4)])
    return path


@pytest.fixture
def dirty_trace(tmp_path):
    path = tmp_path / "dirty.jsonl"
    write_trace(path, [clean_event(seq=1), violating_event(seq=2)])
    return path


class TestReadTraceTolerant:
    def test_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(
            json.dumps(clean_event()) + "\n" + '{"v": 1, "seq": 2, "ty'
        )
        with pytest.warns(TraceTruncated, match="cut.jsonl:2"):
            events = read_trace(path)
        assert events == [clean_event()]

    def test_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('[1, 2]\n' + json.dumps(clean_event()) + "\n\n")
        with pytest.raises(TraceError, match="odd.jsonl:1: not a JSON object"):
            read_trace(path)

    def test_scan_exits_two_on_a_mid_file_non_object_line(self, tmp_path,
                                                          capsys):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps(clean_event()) + '\n[1, 2]\n')
        assert monitor_cli(["scan", str(path)]) == 2
        assert "odd.jsonl:2: not a JSON object" in capsys.readouterr().err


class TestScanExitCodes:
    def test_clean_trace_exits_zero(self, clean_trace, capsys):
        assert monitor_cli(["scan", str(clean_trace), "--strict"]) == 0
        assert "0 alert(s)" in capsys.readouterr().out

    def test_strict_fails_on_alerts(self, dirty_trace, capsys):
        assert monitor_cli(["scan", str(dirty_trace), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "reputation-bounds" in out

    def test_alerts_without_strict_still_exit_zero(self, dirty_trace, capsys):
        assert monitor_cli(["scan", str(dirty_trace)]) == 0
        assert "1 alert(s)" in capsys.readouterr().out

    def test_expect_alerts_passes_on_fault_trace(self, dirty_trace):
        assert monitor_cli(["scan", str(dirty_trace), "--expect-alerts"]) == 0

    def test_expect_alerts_fails_on_clean_trace(self, clean_trace, capsys):
        assert monitor_cli(["scan", str(clean_trace), "--expect-alerts"]) == 1
        assert "expected alerts" in capsys.readouterr().err

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        assert monitor_cli(["scan", str(tmp_path / "no.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert monitor_cli(["scan", str(path)]) == 2
        assert "contains no events" in capsys.readouterr().err

    def test_truncated_tail_tolerated_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        path.write_text(json.dumps(clean_event()) + "\n" + '{"bro')
        assert monitor_cli(["scan", str(path), "--strict"]) == 0
        assert "skipped 1 undecodable line" in capsys.readouterr().err


class TestScanOutputs:
    def test_json_mode_is_machine_readable(self, dirty_trace, capsys):
        assert monitor_cli(["scan", str(dirty_trace), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] == 2
        assert [a["rule"] for a in report["alerts"]] == ["reputation-bounds"]
        assert report["alerts"][0]["seq"] == 2

    def test_postmortem_written_on_alerts(self, dirty_trace, tmp_path, capsys):
        out_dir = tmp_path / "dumps"
        assert monitor_cli([
            "scan", str(dirty_trace), "--postmortem", str(out_dir),
        ]) == 0
        dump = out_dir / "postmortem-dirty.jsonl"  # run id = trace stem
        assert dump.exists()
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["reason"] == "scan"
        assert header["alerts"][0]["rule"] == "reputation-bounds"
        assert "postmortem:" in capsys.readouterr().err

    def test_no_postmortem_on_clean_trace(self, clean_trace, tmp_path):
        out_dir = tmp_path / "dumps"
        monitor_cli(["scan", str(clean_trace), "--postmortem", str(out_dir)])
        assert not out_dir.exists()

    def test_run_id_overrides_dump_name(self, dirty_trace, tmp_path):
        out_dir = tmp_path / "dumps"
        monitor_cli([
            "scan", str(dirty_trace), "--postmortem", str(out_dir),
            "--run-id", "ci-night",
        ])
        assert (out_dir / "postmortem-ci-night.jsonl").exists()


class TestWatchMode:
    def test_watch_drains_existing_trace_and_idle_exits(self, dirty_trace,
                                                        capsys):
        rc = monitor_cli([
            "scan", str(dirty_trace), "--watch",
            "--poll", "0.01", "--idle-exit", "0.05",
        ])
        err = capsys.readouterr().err
        assert rc == 0  # not strict: alerts are reported, not fatal
        assert "ALERT [invariant] reputation-bounds" in err
        assert "watch: 1 alert(s)" in err

    def test_watch_strict_exits_one_on_alert(self, dirty_trace, capsys):
        rc = monitor_cli([
            "scan", str(dirty_trace), "--watch", "--strict",
            "--poll", "0.01", "--idle-exit", "0.05",
        ])
        assert rc == 1

    def test_watch_missing_file_exits_two(self, tmp_path, capsys):
        rc = monitor_cli([
            "scan", str(tmp_path / "nope.jsonl"), "--watch",
            "--idle-exit", "0.05",
        ])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_watch_ignores_partial_final_line(self, tmp_path, capsys):
        path = tmp_path / "grow.jsonl"
        path.write_text(json.dumps(clean_event()) + "\n" + '{"half')
        rc = monitor_cli([
            "scan", str(path), "--watch",
            "--poll", "0.01", "--idle-exit", "0.05",
        ])
        assert rc == 0
        assert "watch: 0 alert(s)" in capsys.readouterr().err

    def test_watch_exits_two_on_a_malformed_event(self, tmp_path, capsys):
        path = tmp_path / "grow.jsonl"
        bad = {"v": 1, "seq": 5, "type": "fifl.round"}
        path.write_text(json.dumps(clean_event()) + "\n"
                        + json.dumps(bad) + "\n")
        rc = monitor_cli([
            "scan", str(path), "--watch",
            "--poll", "0.01", "--idle-exit", "0.05",
        ])
        assert rc == 2
        assert f"{path}: seq 5: malformed event" in capsys.readouterr().err

    def test_watch_warns_about_a_cut_tail_at_exit(self, tmp_path, capsys):
        path = tmp_path / "grow.jsonl"
        path.write_text(json.dumps(clean_event()) + "\n" + '{"half')
        rc = monitor_cli([
            "scan", str(path), "--watch",
            "--poll", "0.01", "--idle-exit", "0.05",
        ])
        assert rc == 0
        assert f"{path}:2: skipped 1 undecodable line" in (
            capsys.readouterr().err
        )
