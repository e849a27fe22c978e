"""``python -m repro.trace``: one reader, one exit-code table, every subcommand.

The reader contract: blank lines are skipped, a cut last line is dropped
with a one-line warning, any other undecodable or non-object line is a
corrupt trace (exit 2, ``path:line``). Malformed events exit 2 naming the
file and the event's ``seq``. No input reaches the user as a traceback.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.telemetry import read_trace
from repro.telemetry.sinks import TraceTruncated
from repro.trace import main
from tests.helpers import seeded_trace

#: every subcommand, with the arguments it needs besides the trace
SUBCOMMANDS = {
    "summary": [],
    "scan": [],
    "perf": [],
    "explain": ["--worker", "0", "--round", "1"],
    "worker": ["--worker", "0"],
    "round": ["--round", "1"],
    "fairness": [],
    "verify": [],
}


def run(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_all(path):
    """Exit code and stderr of every subcommand over one trace file."""
    results = {}
    for name, extra in SUBCOMMANDS.items():
        code, _, err = run([name, str(path), *extra])
        results[name] = (code, err)
    return results


class TestHelp:
    def test_help_lists_the_eight_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out


GOOD = json.dumps({"v": 1, "seq": 6, "type": "span", "name": "trainer.round",
                   "kind": "round", "depth": 1, "dur_s": 0.1})

#: the malformed inputs, each as line 2 / seq 7 after one good event
PROBES = {
    "fifl-round-without-data": (
        {"v": 1, "seq": 7, "type": "fifl.round"}, "seq 7"),
    "gauge-without-value": (
        {"v": 1, "seq": 7, "type": "metric", "kind": "gauge", "name": "g"},
        "seq 7"),
    "round-not-an-integer": (
        {"v": 1, "seq": 7, "type": "fifl.round", "data": {"round": "a"}},
        "seq 7"),
    "non-object-line": ([1, 2], ":2: not a JSON object"),
}


class TestMalformedEvents:
    @pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_exits_two_naming_file_and_event(self, tmp_path, probe,
                                             subcommand):
        event, where = PROBES[probe]
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD + "\n" + json.dumps(event) + "\n")
        code, out, err = run([subcommand, str(path),
                              *SUBCOMMANDS[subcommand]])
        assert code == 2
        assert str(path) in err
        assert where in err
        assert "Traceback" not in err + out

    def test_fold_errors_name_the_event(self, tmp_path):
        # envelope fine, payload field of the wrong type: the audit fold
        # raises, and the front-end names the event's file and seq
        data = {"round": 0, "scores": {"x": 0.5}, "reputations": {},
                "threshold": 0.0, "budget": 1.0}
        path = tmp_path / "fold.jsonl"
        path.write_text(json.dumps(
            {"v": 1, "seq": 3, "type": "fifl.round", "data": data}) + "\n")
        code, _, err = run(["verify", str(path)])
        assert code == 2
        assert f"{path}: seq 3: malformed event" in err


class TestCutTail:
    @pytest.fixture(scope="class")
    def cut_trace(self, tmp_path_factory):
        data = seeded_trace()
        path = tmp_path_factory.mktemp("cut") / "cut.jsonl"
        path.write_bytes(data[:-10])
        return path

    def test_every_subcommand_warns_once_and_succeeds(self, cut_trace):
        lines = seeded_trace().count(b"\n")
        for name, (code, err) in run_all(cut_trace).items():
            assert code == 0, (name, err)
            warning = [line for line in err.splitlines()
                       if line.startswith("warning:")]
            assert warning == [
                f"warning: {cut_trace}:{lines}: skipped 1 undecodable line "
                f"at the end of the trace (not valid JSONL: a cut tail)"
            ], name


def _expected_after_cut(data: bytes, n: int) -> int:
    """Events ``read_trace`` must keep when the trace is cut at byte ``n``."""
    kept = data[:n]
    # a cut right before a newline leaves the last line whole
    whole_tail = data[n:n + 1] == b"\n" and kept[-1:] not in (b"", b"\n")
    return kept.count(b"\n") + whole_tail


def _write(data: bytes) -> Path:
    fh = tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False)
    with fh:
        fh.write(data)
    return Path(fh.name)


class TestTruncationProperty:
    """Any cut or any one-byte flip: exit 0, 1 or 2, never a traceback."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_cut_at_any_offset(self, data):
        trace = seeded_trace()
        full = [json.loads(line) for line in trace.splitlines()]
        n = data.draw(st.integers(0, len(trace)), label="cut")
        path = _write(trace[:n])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TraceTruncated)
                kept = read_trace(path)
            assert kept == full[:_expected_after_cut(trace, n)]
            for name, (code, err) in run_all(path).items():
                assert code in (0, 1, 2), (name, code, err)
                assert "Traceback" not in err
        finally:
            path.unlink()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_flip_any_byte(self, data):
        trace = bytearray(seeded_trace())
        at = data.draw(st.integers(0, len(trace) - 1), label="offset")
        trace[at] ^= data.draw(st.integers(1, 255), label="xor")
        path = _write(bytes(trace))
        try:
            for name, (code, err) in run_all(path).items():
                assert code in (0, 1, 2), (name, code, err)
                assert "Traceback" not in err
        finally:
            path.unlink()


#: the committed v1 kill/resume trace pair
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = ("trace-killed.jsonl", "trace-resumed.jsonl")


def golden_commands(snap_dir, killed, resumed):
    """The service runs that write the golden pair (as CI's audit smoke).

    After a deliberate format change, regenerate the fixture by running
    these with ``killed``/``resumed`` under ``tests/fixtures``.
    """
    return [
        ["repro.service", "run", "--preset", "sim-churn", "--dir",
         str(snap_dir), "--rounds", "8", "--checkpoint-every", "2",
         "--until-round", "4", "--trace", str(killed),
         "--deterministic-clock"],
        ["repro.service", "resume", "--dir", str(snap_dir), "--trace",
         str(resumed), "--deterministic-clock"],
    ]


class TestGoldenFixture:
    """Format drift in the trace fails here, not in a user's audit."""

    @pytest.fixture(scope="class")
    def regenerated(self, tmp_path_factory):
        import os
        import subprocess
        import sys

        root = tmp_path_factory.mktemp("golden")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        for cmd in golden_commands(root / "svc", *(root / n for n in GOLDEN)):
            subprocess.run([sys.executable, "-m", *cmd], check=True, env=env,
                           capture_output=True, timeout=300)
        return root

    def test_regenerated_traces_are_byte_equal(self, regenerated):
        for name in GOLDEN:
            assert (regenerated / name).read_bytes() == \
                (FIXTURES / name).read_bytes(), name

    def test_committed_pair_verifies_strict(self, regenerated):
        code, out, err = run([
            "verify", *(str(FIXTURES / n) for n in GOLDEN),
            "--dir", str(regenerated / "svc"), "--strict",
        ])
        assert code == 0, out + err
        assert "0 failed, 0 skipped" in out


class TestCorruptSnapshot:
    """``--dir`` over a snapshot that fails its digest check exits 2 with
    one line naming the snapshot, for every subcommand that reads it."""

    @pytest.fixture(scope="class")
    def service_run(self, tmp_path_factory):
        from repro.service import FederationService, latest_snapshot
        from repro.service.cli import make_preset
        from repro.telemetry import (
            MemorySink,
            Telemetry,
            TickClock,
            encode_event,
            get_telemetry,
            set_telemetry,
        )

        root = tmp_path_factory.mktemp("corrupt-snapshot")
        hub = Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock())
        prev = get_telemetry()
        set_telemetry(hub)
        try:
            cfg = make_preset("blobs-fifl", rounds=2, checkpoint_every=1)
            FederationService(cfg, root / "svc").run()
        finally:
            set_telemetry(prev)
        trace = root / "trace.jsonl"
        trace.write_text("".join(encode_event(ev) + "\n" for ev in hub.events()))
        state = latest_snapshot(root / "svc") / "state.pkl"
        blob = bytearray(state.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        state.write_bytes(bytes(blob))
        return trace, root / "svc", state.parent

    @pytest.mark.parametrize("command", ["verify", "fairness"])
    def test_flipped_state_byte_exits_2(self, service_run, command):
        trace, snap_root, snap = service_run
        code, _, err = run([command, str(trace), "--dir", str(snap_root)])
        assert code == 2, err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(snap) in err and "state.pkl" in err
