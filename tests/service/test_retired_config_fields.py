"""Snapshots pickled with the retired round/local engine switches resume.

Every snapshot written while ``FedExpConfig`` still had ``engine`` and
``local_engine`` fields carries them in its pickled config. Unpickling
restores them as plain instance attributes that nothing reads; the
mechanism itself is rebuilt from the config, never unpickled, so the
per-worker detector classes that left ``repro.core`` cannot break a
resume either.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.service import FederationService
from repro.service.cli import make_preset
from repro.service.snapshot import latest_snapshot, load_snapshot
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    TickClock,
    get_telemetry,
    set_telemetry,
)

REPO = Path(__file__).resolve().parents[2]


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )
    assert proc.returncode == 0, f"{args}\n{proc.stdout}\n{proc.stderr}"
    return proc


def test_snapshot_with_retired_engine_fields_resumes(tmp_path):
    snaps = tmp_path / "snaps"
    cfg = make_preset("blobs-fifl", rounds=8, checkpoint_every=4)
    # as FedExpConfig pickled them before the single round engine
    cfg.fed.engine = "vectorized"
    cfg.fed.local_engine = "fleet"
    hub = Telemetry(
        sinks=[MemorySink(), JsonlSink(tmp_path / "a.jsonl")], clock=TickClock()
    )
    previous = get_telemetry()
    set_telemetry(hub)
    try:
        FederationService(cfg, snaps).run(until_round=4)
    finally:
        hub.close()
        set_telemetry(previous)

    snap = latest_snapshot(snaps)
    config, state = load_snapshot(snap)
    assert config.fed.engine == "vectorized"
    assert config.fed.local_engine == "fleet"
    # mechanism state is plain data; no detector object is pickled
    assert isinstance(state["mechanism"], dict)
    assert b"AttackDetector" not in (snap / "state.pkl").read_bytes()

    _cli(
        "repro.service", "resume", "--dir", str(snaps),
        "--trace", str(tmp_path / "b.jsonl"), "--deterministic-clock",
    )
    _cli(
        "repro.trace", "verify", str(tmp_path / "a.jsonl"),
        str(tmp_path / "b.jsonl"), "--dir", str(snaps), "--strict",
    )
