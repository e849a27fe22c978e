"""``python -m repro.service`` across real process boundaries.

The in-process differentials (test_service_resume) prove the state
inventory; these tests prove the *operational* story: a service process
SIGKILLed mid-run leaves durable snapshots a fresh process resumes
from, byte-identical, driven entirely through the CLI.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ROUNDS = "12"


def _run_cli(*args, check=True):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli {args} -> {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def _common(dir_, trace):
    return (
        "--preset", "blobs-fifl", "--dir", str(dir_), "--rounds", ROUNDS,
        "--checkpoint-every", "4", "--trace", str(trace),
        "--deterministic-clock",
    )


@pytest.fixture(scope="module")
def kill_resume(tmp_path_factory):
    """One killed-then-resumed run + one clean run, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    clean = _run_cli(
        "run", *_common(root / "clean", root / "clean.jsonl")
    )
    killed = _run_cli(
        "run", *_common(root / "killed", root / "part1.jsonl"),
        "--kill-after-round", "7", check=False,
    )
    status = _run_cli("status", "--dir", str(root / "killed"), check=False)
    resumed = _run_cli(
        "resume", "--dir", str(root / "killed"),
        "--trace", str(root / "part2.jsonl"), "--deterministic-clock",
    )
    return {
        "root": root,
        "clean": json.loads(clean.stdout),
        "killed_proc": killed,
        "status_after_kill": status,
        "resumed": json.loads(resumed.stdout),
    }


class TestKillResume:
    def test_kill_is_a_real_sigkill(self, kill_resume):
        assert kill_resume["killed_proc"].returncode == -signal.SIGKILL

    def test_snapshots_survive_the_kill(self, kill_resume):
        # taken between the SIGKILL and the resume
        status = kill_resume["status_after_kill"]
        # status exits 0 only when snapshots exist
        assert status.returncode == 0
        out = json.loads(status.stdout)
        assert out["latest"] == "snapshot-00000008"
        assert out["round"] == 8

    def test_resumed_outputs_match_clean_run(self, kill_resume):
        clean, resumed = kill_resume["clean"], kill_resume["resumed"]
        assert resumed["next_round"] == clean["next_round"]
        assert resumed["history_digest"] == clean["history_digest"]
        assert resumed["reputation_digest"] == clean["reputation_digest"]
        assert resumed["ledger_head"] == clean["ledger_head"]
        assert resumed["ledger_intact"] is True
        assert resumed["final_accuracy"] == clean["final_accuracy"]

    def test_trace_bytes_identical_across_the_kill(self, kill_resume):
        root = kill_resume["root"]
        combined = (root / "part1.jsonl").read_bytes() + (
            root / "part2.jsonl"
        ).read_bytes()
        assert combined == (root / "clean.jsonl").read_bytes()

    def test_inspect_verifies_surviving_snapshot(self, kill_resume):
        inspect = _run_cli(
            "inspect", "--dir", str(kill_resume["root"] / "killed")
        )
        report = json.loads(inspect.stdout)
        assert report["ok"] is True
        assert set(report["components"]) >= {
            "config.pkl", "model.npz", "state.pkl",
        }

    def test_status_audit_lists_lineage_anchors(self, kill_resume):
        status = _run_cli(
            "status", "--dir", str(kill_resume["root"] / "killed"), "--audit"
        )
        payload = json.loads(status.stdout)
        anchors = payload["audit"]
        assert len(anchors) == len(payload["snapshots"])
        rounds = [a["round"] for a in anchors]
        assert rounds == sorted(rounds)
        for a in anchors:
            assert a["history_digest"]
            assert a["reputation_digest"]
            # blobs-fifl carries a ledger, so the chain head anchors too
            assert a["ledger_head"]

    def test_audit_anchors_match_clean_run(self, kill_resume):
        # the anchors are pure functions of federation state: a resumed
        # process writes the same digests the uninterrupted one did
        root = kill_resume["root"]
        def anchors(d):
            out = _run_cli("status", "--dir", str(root / d), "--audit")
            return [
                {k: v for k, v in a.items() if k != "snapshot"}
                for a in json.loads(out.stdout)["audit"]
            ]
        clean, killed = anchors("clean"), anchors("killed")
        by_round = {a["round"]: a for a in clean}
        for a in killed:
            assert a == by_round[a["round"]]


class TestErrors:
    def test_status_on_empty_dir_exits_nonzero(self, tmp_path):
        proc = _run_cli("status", "--dir", str(tmp_path), check=False)
        assert proc.returncode == 1

    def test_resume_without_snapshots_is_a_snapshot_error(self, tmp_path):
        proc = _run_cli("resume", "--dir", str(tmp_path), check=False)
        assert proc.returncode == 2
        assert "no snapshots" in proc.stderr

    def test_unknown_preset_rejected(self, tmp_path):
        proc = _run_cli(
            "run", "--preset", "nope", "--dir", str(tmp_path), check=False
        )
        assert proc.returncode == 2  # argparse choices error

    def test_resume_with_unbuildable_config_is_a_snapshot_error(self, tmp_path):
        # a snapshot whose stored config names a backend this version
        # no longer has (e.g. written by a release with a process pool)
        from repro.service import FederationService
        from repro.service.cli import make_preset
        from repro.telemetry import Telemetry, get_telemetry, set_telemetry

        prev = get_telemetry()
        set_telemetry(Telemetry())
        try:
            cfg = make_preset("blobs-fifl", rounds=2, checkpoint_every=1)
            service = FederationService(cfg, tmp_path)
            service.config.fed = cfg.fed.scaled(backend="process")
            snap = service.save()
        finally:
            set_telemetry(prev)
        proc = _run_cli("resume", "--dir", str(tmp_path), check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert snap.name in proc.stderr
        assert "backend" in proc.stderr
