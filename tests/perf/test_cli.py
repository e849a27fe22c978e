"""``python -m repro.trace perf``: top view, export, diff, exit codes."""

import json

import pytest

from repro.trace import main
from repro.perf.perfetto import validate_trace
from repro.telemetry.sinks import encode_event

from .test_aggregate import run_trace
from .test_perfetto import parallel_event, resource_event


def write_trace(path, events):
    path.write_text("\n".join(encode_event(e) for e in events) + "\n")
    return path


@pytest.fixture
def trace_file(tmp_path):
    return write_trace(tmp_path / "trace.jsonl", run_trace())


class TestTopView:
    def test_prints_flame_table(self, trace_file, capsys):
        assert main(["perf", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "perf: 2 rounds" in out
        assert "top phase by self time: trainer.mechanism" in out
        assert "trainer.round" in out

    def test_json_output(self, trace_file, capsys):
        assert main(["perf", str(trace_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["rounds"] == 2
        assert "trainer.run/trainer.round" in payload["spans"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["perf", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_truncated_jsonl_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "span", "name": "x"\n')
        assert main(["perf", str(path)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["perf", str(path)]) == 2
        assert "no events" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2


class TestPerfettoExport:
    def test_export_writes_valid_trace(self, trace_file, tmp_path, capsys):
        out = tmp_path / "perfetto.json"
        assert main(["perf", str(trace_file), "--perfetto", str(out)]) == 0
        validate_trace(json.loads(out.read_text()))
        assert "perfetto trace saved" in capsys.readouterr().err

    def test_resources_side_stream_merged(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl",
                            run_trace() + [parallel_event()])
        res = write_trace(tmp_path / "r.jsonl",
                          [resource_event(rnd=0), resource_event(rnd=1)])
        out = tmp_path / "p.json"
        assert main(["perf", str(trace), "--perfetto", str(out),
                     "--resources", str(res)]) == 0
        exported = json.loads(out.read_text())
        phases = {e["ph"] for e in exported["traceEvents"]}
        assert "C" in phases  # resource counters made it in
        procs = [e["args"]["name"] for e in exported["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert {"trainer", "parallel backend", "resources"} <= set(procs)

    def test_unreadable_resources_exits_2(self, trace_file, tmp_path):
        assert main(["perf", str(trace_file), "--perfetto",
                     str(tmp_path / "o.json"),
                     "--resources", str(tmp_path / "missing.jsonl")]) == 2


class TestDiff:
    def test_identical_traces_report_zero(self, trace_file, capsys):
        assert main(["perf", "--diff", str(trace_file), str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "positive delta = candidate slower" in out
        assert "+0.0000" in out

    def test_json_diff_zero_total(self, trace_file, capsys):
        assert main(["perf", "--diff", str(trace_file), str(trace_file),
                     "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["total_delta_s"] == 0.0

    def test_regression_is_positive_delta(self, tmp_path, capsys):
        old = write_trace(tmp_path / "old.jsonl", run_trace())
        slow = [dict(ev, dur_s=ev["dur_s"] * 2) for ev in run_trace()]
        new = write_trace(tmp_path / "new.jsonl", slow)
        assert main(["perf", "--diff", str(old), str(new), "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["total_delta_s"] > 0
        # swapped order: an improvement, negative total
        assert main(["perf", "--diff", str(new), str(old), "--json"]) == 0
        diff_back = json.loads(capsys.readouterr().out)
        assert diff_back["total_delta_s"] < 0

    def test_fail_above_gates_exit_code(self, tmp_path, capsys):
        old = write_trace(tmp_path / "old.jsonl", run_trace())
        slow = [dict(ev, dur_s=ev["dur_s"] * 2) for ev in run_trace()]
        new = write_trace(tmp_path / "new.jsonl", slow)
        # a 2x regression is way above 25%
        assert main(["perf", "--diff", str(old), str(new), "--fail-above", "25"]) == 1
        assert "exceeds --fail-above" in capsys.readouterr().err
        # generous gate passes; improvements always pass
        assert main(["perf", "--diff", str(old), str(new),
                     "--fail-above", "500"]) == 0
        assert main(["perf", "--diff", str(new), str(old),
                     "--fail-above", "25"]) == 0

    def test_diff_of_missing_file_exits_2(self, trace_file, tmp_path):
        assert main(["perf", "--diff", str(trace_file),
                     str(tmp_path / "gone.jsonl")]) == 2

    def test_diff_plus_positional_trace_is_usage_error(self, trace_file):
        with pytest.raises(SystemExit) as exc:
            main(["perf", str(trace_file), "--diff", str(trace_file),
                  str(trace_file)])
        assert exc.value.code == 2
