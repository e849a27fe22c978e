"""The traffic-replay harness: seeded workloads and the SLO report."""

import time

import pytest

from repro.service import ReplayConfig, generate_workload, run_replay
from repro.telemetry import get_telemetry


class TestGenerateWorkload:
    def test_deterministic_in_seed(self):
        cfg = ReplayConfig(rounds=400, seed=7)
        assert generate_workload(cfg).churn == generate_workload(cfg).churn

    def test_different_seed_different_churn(self):
        a = generate_workload(ReplayConfig(rounds=400, seed=0))
        b = generate_workload(ReplayConfig(rounds=400, seed=1))
        assert a.churn != b.churn

    def test_churn_never_touches_servers(self):
        cfg = ReplayConfig(rounds=600, seed=3)
        scenario = generate_workload(cfg)
        touched = {wid for _, wid, _ in scenario.churn}
        assert touched
        assert touched.isdisjoint(cfg.server_ranks)

    def test_every_leave_rejoins_within_run(self):
        cfg = ReplayConfig(rounds=500, seed=0)
        out = {}
        for rnd, wid, kind in generate_workload(cfg).churn:
            if kind == "leave":
                out[(rnd, wid)] = rnd + cfg.rejoin_after
        for (rnd, wid), rejoin in out.items():
            if rejoin < cfg.rounds:
                assert (rejoin, wid, "join") in generate_workload(cfg).churn

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ReplayConfig(rounds=0)
        with pytest.raises(ValueError):
            ReplayConfig(burst_every=0)


class TestRunReplay:
    def test_short_replay_meets_slos(self, tmp_path):
        cfg = ReplayConfig(
            rounds=120,
            num_workers=8,
            burst_every=25,
            burst_size=2,
            rejoin_after=10,
            checkpoint_every=40,
            history_tail=32,
            samples_per_worker=16,
            test_samples=64,
            sample_every=10,
        )
        prev_hub = get_telemetry()
        report = run_replay(cfg, tmp_path / "replay")
        # the harness's private hub never leaks into the process
        assert get_telemetry() is prev_hub

        assert report["rounds"] == 120
        assert report["checkpoints"] == 3
        assert report["sustained_rounds_per_sec"] > 0
        assert report["rss_growth_alerts"] == 0
        # history compacts to the tail; the digest chain still covers
        # every round ever run
        assert report["history_rounds_in_memory"] <= 32
        assert len(report["history_digest"]) == 64
        assert 0.0 <= report["snapshot_overhead_pct"] < 100.0
        assert report["final_accuracy"] is not None

    def test_same_seed_same_history(self, tmp_path):
        cfg = ReplayConfig(
            rounds=60,
            num_workers=8,
            burst_every=20,
            burst_size=2,
            rejoin_after=8,
            checkpoint_every=30,
            samples_per_worker=16,
            test_samples=64,
        )
        a = run_replay(cfg, tmp_path / "a")
        b = run_replay(cfg, tmp_path / "b")
        assert a["history_digest"] == b["history_digest"]
        assert a["final_accuracy"] == b["final_accuracy"]

    def test_checkpoint_time_covers_the_snapshot_writes(self, tmp_path,
                                                         monkeypatch):
        import repro.service.service as service_mod

        write_s = []
        write_snapshot = service_mod.write_snapshot

        def spy(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return write_snapshot(*args, **kwargs)
            finally:
                write_s.append(time.perf_counter() - t0)

        monkeypatch.setattr(service_mod, "write_snapshot", spy)
        cfg = ReplayConfig(
            rounds=60,
            num_workers=8,
            checkpoint_every=20,
            samples_per_worker=16,
            test_samples=64,
        )
        report = run_replay(cfg, tmp_path / "replay")
        assert len(write_s) == report["checkpoints"] == 3
        # the whole save is charged, not only the state capture
        assert report["checkpoint_s_total"] >= sum(write_s)
        assert report["snapshot_overhead_pct"] == pytest.approx(
            100.0 * report["checkpoint_s_total"] / report["round_s_total"])
