"""Resume skips a corrupt newest snapshot and falls back to an older one.

A ``sim-churn`` run checkpoints at rounds 2, 4 and 6 and is then
stopped. Whatever byte of whatever component of the round-6 snapshot is
cut or flipped, resuming the directory must continue from round 4 and
produce exactly what ``resume --snapshot snapshot-00000004`` produces:
the same digests and the same trace bytes.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import (
    FederationService,
    SnapshotError,
    list_snapshots,
    read_manifest,
)
from repro.service.cli import main as cli_main
from repro.service.cli import make_preset
from repro.telemetry import (
    MemorySink,
    Telemetry,
    TickClock,
    encode_event,
    set_telemetry,
)

NEWEST = "snapshot-00000006"
OLDER = "snapshot-00000004"


@contextlib.contextmanager
def _fresh_hub():
    hub = Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock())
    previous = set_telemetry(hub)
    try:
        yield hub
    finally:
        set_telemetry(previous)


def _resume_and_finish(snap_dir: Path, snapshot=None) -> tuple[dict, str]:
    """Resume in a fresh hub, run to the end; (outputs, stderr)."""
    err = io.StringIO()
    with _fresh_hub() as hub, contextlib.redirect_stderr(err):
        service = FederationService.resume(snap_dir, snapshot=snapshot)
        start = service.next_round
        service.run()
    return {
        "start": start,
        "trace": [encode_event(ev) for ev in hub.events()],
        "history": service.history_digest(),
        "reputation": service.reputation_digest(),
        "ledger": service.ledger.head_hash(),
    }, err.getvalue()


@pytest.fixture(scope="module")
def stopped_run(tmp_path_factory):
    """A sim-churn directory stopped after its round-6 checkpoint, and
    what resuming its round-4 snapshot by name produces."""
    root = tmp_path_factory.mktemp("fallback")
    with _fresh_hub():
        cfg = make_preset("sim-churn", rounds=8, checkpoint_every=2)
        FederationService(cfg, root / "run").run(until_round=6)
    assert [p.name for p in list_snapshots(root / "run")][-2:] == [OLDER, NEWEST]
    shutil.copytree(root / "run", root / "named")
    expected, err = _resume_and_finish(
        root / "named", snapshot=root / "named" / OLDER
    )
    assert expected["start"] == 4 and err == ""
    return root, expected


def _copy(root: Path, name: str) -> Path:
    dst = root / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(root / "run", dst)
    return dst


def _flip(path: Path, offset: int, mask: int = 0x01) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= mask
    path.write_bytes(bytes(blob))


class TestFallback:
    def test_flipped_newest_resumes_the_older_one(self, stopped_run):
        root, expected = stopped_run
        snap_dir = _copy(root, "flipped")
        state = snap_dir / NEWEST / "state.pkl"
        _flip(state, state.stat().st_size // 2)
        got, err = _resume_and_finish(snap_dir)
        assert got == expected
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert NEWEST in lines[0] and "state.pkl" in lines[0]

    def test_named_corrupt_snapshot_does_not_fall_back(self, stopped_run):
        root, _ = stopped_run
        snap_dir = _copy(root, "named-corrupt")
        _flip(snap_dir / NEWEST / "model.npz", 0)
        with _fresh_hub(), pytest.raises(SnapshotError, match=NEWEST):
            FederationService.resume(snap_dir, snapshot=snap_dir / NEWEST)

    def test_cli_exits_2_only_when_none_is_intact(self, stopped_run, capsys):
        root, _ = stopped_run
        snap_dir = _copy(root, "all-corrupt")
        snaps = list_snapshots(snap_dir)
        for snap in snaps:
            _flip(snap / "state.pkl", 0)
        with _fresh_hub():
            code = cli_main(["resume", "--dir", str(snap_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        # one warning per skipped snapshot, then the oldest one's error
        assert len(err.strip().splitlines()) == len(snaps)
        assert all(snap.name in err for snap in snaps)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_cut_or_flip_of_the_newest_falls_back(stopped_run, data):
    root, expected = stopped_run
    snap_dir = _copy(root, "property")
    components = sorted(read_manifest(snap_dir / NEWEST)["components"])
    path = snap_dir / NEWEST / data.draw(st.sampled_from(components))
    size = path.stat().st_size
    offset = data.draw(st.integers(0, size - 1), label="offset")
    if data.draw(st.booleans(), label="cut"):
        path.write_bytes(path.read_bytes()[:offset])
    else:
        _flip(path, offset, data.draw(st.integers(1, 255), label="mask"))
    got, err = _resume_and_finish(snap_dir)
    assert got == expected
    assert len(err.strip().splitlines()) == 1 and NEWEST in err
