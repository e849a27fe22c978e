"""Kill/resume differentials: a resumed service is byte-identical.

The core contract: a run checkpointed at round k, "killed" (the process
state discarded), and resumed from the snapshot produces exactly the
same trace bytes, history digest, reputation state and ledger chain as
a process that never died. The differential runs each half under its
own fresh telemetry hub — the resumed half starts from a *new* hub the
way a new process would, and must continue the clean run's sequence
numbering from the snapshot alone.
"""

import pickle
import signal

import pytest

from repro.service import FederationService, SnapshotError, list_snapshots
from repro.service.cli import make_preset
from repro.service.snapshot import load_snapshot
from repro.telemetry import (
    MemorySink,
    Telemetry,
    TickClock,
    encode_event,
    get_telemetry,
    set_telemetry,
)

PRESETS = ["blobs-fifl", "sim-churn", "population"]
ROUNDS = 10
CHECKPOINT_EVERY = 5


@pytest.fixture(autouse=True)
def _private_hub():
    """Each test swaps in its own hubs; restore the process hub after."""
    prev = get_telemetry()
    yield
    set_telemetry(prev)


def _fresh_hub() -> Telemetry:
    return Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock())


def _outputs(service, hub) -> dict:
    return {
        "trace": [encode_event(ev) for ev in hub.events()],
        "history": service.history_digest(),
        "reputation": service.reputation_digest(),
        "ledger": (
            service.ledger.head_hash() if service.ledger is not None else None
        ),
        "accuracy": service.final_accuracy(),
    }


def _run_clean(preset, snap_dir, **preset_kw):
    hub = _fresh_hub()
    set_telemetry(hub)
    cfg = make_preset(
        preset, rounds=ROUNDS, checkpoint_every=CHECKPOINT_EVERY, **preset_kw
    )
    service = FederationService(cfg, snap_dir)
    service.run()
    return _outputs(service, hub)


def _run_killed_then_resumed(preset, snap_dir, stop_round, **preset_kw):
    # part 1: run to the checkpoint boundary, then drop everything the
    # process held in memory — exactly what SIGKILL leaves behind
    hub1 = _fresh_hub()
    set_telemetry(hub1)
    cfg = make_preset(
        preset, rounds=ROUNDS, checkpoint_every=CHECKPOINT_EVERY, **preset_kw
    )
    part1 = FederationService(cfg, snap_dir)
    part1.run(until_round=stop_round)
    trace1 = [encode_event(ev) for ev in hub1.events()]

    # part 2: a "new process" — fresh hub, state only from the snapshot
    hub2 = _fresh_hub()
    set_telemetry(hub2)
    part2 = FederationService.resume(snap_dir)
    assert part2.next_round == stop_round
    part2.run()
    out = _outputs(part2, hub2)
    out["trace"] = trace1 + out["trace"]
    return out


class TestKillResumeDifferential:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_byte_identical_to_uninterrupted_run(self, preset, tmp_path):
        clean = _run_clean(preset, tmp_path / "clean")
        resumed = _run_killed_then_resumed(
            preset, tmp_path / "killed", stop_round=CHECKPOINT_EVERY
        )
        assert resumed["history"] == clean["history"]
        assert resumed["reputation"] == clean["reputation"]
        assert resumed["ledger"] == clean["ledger"]
        assert resumed["accuracy"] == clean["accuracy"]
        # trace equality last: it subsumes the digests but a digest
        # mismatch is the more actionable first failure
        assert resumed["trace"] == clean["trace"]

    def test_resume_with_history_tail_matches_untrimmed(self, tmp_path):
        clean = _run_clean("blobs-fifl", tmp_path / "clean")
        resumed = _run_killed_then_resumed(
            "blobs-fifl",
            tmp_path / "killed",
            stop_round=CHECKPOINT_EVERY,
            history_tail=3,
        )
        # compaction folds old records into the rolling chain without
        # changing the end-of-run digest (or the bytes of the trace)
        assert resumed["history"] == clean["history"]
        assert resumed["trace"] == clean["trace"]


class TestHistoryCompaction:
    def test_tail_bounds_memory_and_preserves_digest(self, tmp_path):
        full = _run_clean("blobs-fifl", tmp_path / "full")
        hub = _fresh_hub()
        set_telemetry(hub)
        cfg = make_preset(
            "blobs-fifl",
            rounds=ROUNDS,
            checkpoint_every=CHECKPOINT_EVERY,
            history_tail=3,
        )
        service = FederationService(cfg, tmp_path / "tailed")
        service.run()
        assert len(service.history.rounds) == 3
        assert service._rounds_folded == ROUNDS - 3
        assert service.history_digest() == full["history"]

    def test_tail_bounds_the_pickled_mechanism_state(self, tmp_path):
        # service.py: memory over many rounds is bounded by history_tail,
        # so the mechanism state a checkpoint pickles at round 2k (its
        # reputation table, and the whole mechanism capture) is within
        # 10% of round k's
        set_telemetry(_fresh_hub())
        k = 12
        cfg = make_preset(
            "sim-churn", rounds=2 * k, checkpoint_every=k, history_tail=3
        )
        FederationService(cfg, tmp_path).run()
        sizes = []
        for snap in list_snapshots(tmp_path):
            mech = load_snapshot(snap)[1]["mechanism"]
            sizes.append(
                (len(pickle.dumps(mech["reputation"])), len(pickle.dumps(mech)))
            )
        (rep_k, mech_k), (rep_2k, mech_2k) = sizes
        assert abs(rep_2k - rep_k) <= 0.1 * rep_k, sizes
        assert abs(mech_2k - mech_k) <= 0.1 * mech_k, sizes


class TestSignals:
    def test_sigterm_checkpoints_and_stops(self, tmp_path):
        hub = _fresh_hub()
        set_telemetry(hub)
        cfg = make_preset(
            "blobs-fifl", rounds=ROUNDS, checkpoint_every=CHECKPOINT_EVERY
        )
        service = FederationService(cfg, tmp_path / "svc")
        orig_round = service.trainer.run_round

        def run_round(t):
            record = orig_round(t)
            if t == 2:
                signal.raise_signal(signal.SIGTERM)
            return record

        service.trainer.run_round = run_round
        service.run()
        # stopped right after round 2's off-schedule checkpoint
        assert service.next_round == 3
        snaps = [p.name for p in list_snapshots(tmp_path / "svc")]
        assert "snapshot-00000003" in snaps
        # the previous handler is restored on exit
        assert signal.getsignal(signal.SIGTERM) != service._handle_signal

        # a resumed service finishes the run; the training outputs match
        # a never-interrupted run (the off-schedule checkpoint perturbs
        # the trace, never the math)
        service2 = FederationService.resume(tmp_path / "svc")
        service2.run()
        clean = _run_clean("blobs-fifl", tmp_path / "clean")
        assert service2.history_digest() == clean["history"]
        assert service2.final_accuracy() == clean["accuracy"]


class TestRunValidation:
    def test_kill_round_must_be_checkpoint_boundary(self, tmp_path):
        cfg = make_preset("blobs-fifl", rounds=ROUNDS, checkpoint_every=5)
        service = FederationService(cfg, tmp_path / "svc")
        with pytest.raises(ValueError, match="checkpoint boundary"):
            service.run(kill_after_round=3)

    def test_kill_round_must_be_reachable(self, tmp_path):
        cfg = make_preset("blobs-fifl", rounds=ROUNDS, checkpoint_every=5)
        service = FederationService(cfg, tmp_path / "svc")
        with pytest.raises(ValueError, match="outside"):
            service.run(until_round=5, kill_after_round=9)

    def test_until_round_beyond_config_rejected(self, tmp_path):
        cfg = make_preset("blobs-fifl", rounds=ROUNDS)
        service = FederationService(cfg, tmp_path / "svc")
        with pytest.raises(ValueError, match="exceeds"):
            service.run(until_round=ROUNDS + 1)

    def test_resume_from_empty_dir_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshots"):
            FederationService.resume(tmp_path / "empty")


class TestPruning:
    def test_keep_snapshots_bounds_disk(self, tmp_path):
        hub = _fresh_hub()
        set_telemetry(hub)
        cfg = make_preset("blobs-fifl", rounds=ROUNDS, checkpoint_every=2)
        cfg.keep_snapshots = 2
        service = FederationService(cfg, tmp_path / "svc")
        service.run()
        snaps = [p.name for p in list_snapshots(tmp_path / "svc")]
        assert snaps == ["snapshot-00000008", "snapshot-00000010"]
