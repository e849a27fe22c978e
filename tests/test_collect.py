"""Tests for benchmarks/collect.py (the perf-trajectory tool).

The tool is a standalone script, not part of the ``repro`` package, so
it is loaded from its file path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

COLLECT_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "collect.py"
)


def _load_collect():
    spec = importlib.util.spec_from_file_location("collect", COLLECT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


collect = _load_collect()


def engine_manifest(overhead=1.0):
    return {"monitor_overhead": {"overhead_pct": overhead}}


def parallel_manifest(speedup=2.0, identical=True):
    return {
        "by_size": {
            "16": {"speedup_best": 1.1},
            "256": {"speedup_best": speedup},
        },
        "bitwise_identical": identical,
    }


def sim_manifest(overhead=0.1, identical=True):
    return {"overhead_pct": overhead, "bitwise_identical": identical}


def perf_manifest(p50=0.0014, top_phase="trainer.upload", valid=True,
                  identical=True, diff_zero=True):
    return {
        "p50_round_wall_s": p50, "top_phase": top_phase,
        "perfetto_valid": valid, "probe_trace_identical": identical,
        "diff_zero": diff_zero,
    }


@pytest.fixture
def bench_dir(tmp_path):
    d = tmp_path / "benchmarks"
    d.mkdir()
    (d / "BENCH_engine.json").write_text(json.dumps(engine_manifest()))
    (d / "BENCH_parallel.json").write_text(json.dumps(parallel_manifest()))
    (d / "BENCH_sim.json").write_text(json.dumps(sim_manifest()))
    return d


@pytest.fixture
def trajectory(tmp_path):
    return tmp_path / "BENCH_trajectory.json"


class TestCollectCurrent:
    def test_extracts_headlines_at_largest_size(self, bench_dir):
        current = collect.collect_current(bench_dir)
        assert set(current) == {"engine", "parallel", "sim"}
        assert current["parallel"]["speedup_parallel_n256"]["value"] == 2.0
        assert current["engine"]["monitor_overhead_pct"]["better"] == "lower"
        assert current["sim"]["bitwise_identical"]["better"] == "exact"

    def test_unknown_manifest_skipped_with_notice(self, bench_dir, capsys):
        (bench_dir / "BENCH_mystery.json").write_text("{}")
        current = collect.collect_current(bench_dir)
        assert "mystery" not in current
        assert "no extractor for BENCH_mystery.json" in capsys.readouterr().err


class TestRecord:
    def test_record_appends_then_replaces_same_label(self, bench_dir,
                                                     trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_parallel.json").write_text(
            json.dumps(parallel_manifest(speedup=2.5))
        )
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        traj = json.loads(trajectory.read_text())
        rows = traj["benches"]["parallel"]
        assert len(rows) == 1  # replaced in place, not duplicated
        assert rows[0]["metrics"]["speedup_parallel_n256"]["value"] == 2.5

    def test_distinct_labels_accumulate(self, bench_dir, trajectory):
        collect.record("PR4", path=trajectory, bench_dir=bench_dir)
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        rows = json.loads(trajectory.read_text())["benches"]["engine"]
        assert [r["label"] for r in rows] == ["PR4", "PR5"]


class TestStaleRows:
    def test_carried_forward_row_marked_stale(self, bench_dir, trajectory):
        # identical metrics across labels = the bench was not re-run
        collect.record("PR4", path=trajectory, bench_dir=bench_dir)
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        rows = json.loads(trajectory.read_text())["benches"]["engine"]
        assert "stale" not in rows[0]
        assert rows[1]["stale"] is True

    def test_fresh_rerun_clears_the_mark(self, bench_dir, trajectory):
        collect.record("PR4", path=trajectory, bench_dir=bench_dir)
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_parallel.json").write_text(
            json.dumps(parallel_manifest(speedup=2.1))
        )
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        rows = json.loads(trajectory.read_text())["benches"]["parallel"]
        assert "stale" not in rows[1]

    def test_check_baseline_skips_stale_rows(self, bench_dir, trajectory):
        # PR4 records a fresh 2.0x; PR5 carries it forward (stale); the
        # baseline for --check must still be the fresh PR4 measurement
        collect.record("PR4", path=trajectory, bench_dir=bench_dir)
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        traj = json.loads(trajectory.read_text())
        rows = traj["benches"]["parallel"]
        assert rows[1]["stale"] is True
        # sanity-check the selection: poison the stale row's value so
        # using it as baseline would flag the (unchanged) current state
        rows[1]["metrics"]["speedup_parallel_n256"]["value"] = 99.0
        trajectory.write_text(json.dumps(traj))
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []

    def test_show_renders_stale_marker(self, bench_dir, trajectory):
        collect.record("PR4", path=trajectory, bench_dir=bench_dir)
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        lines = collect.show(path=trajectory)
        assert any("PR5" in l and "[stale: carried forward]" in l
                   for l in lines)
        assert not any("PR4" in l and "stale" in l for l in lines)


class TestCheck:
    def test_passes_when_unchanged(self, bench_dir, trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []

    def test_small_wobble_within_tolerance(self, bench_dir, trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_parallel.json").write_text(
            json.dumps(parallel_manifest(speedup=1.9))  # -5% on a 20% budget
        )
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []

    def test_degraded_speedup_flagged(self, bench_dir, trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_parallel.json").write_text(
            json.dumps(parallel_manifest(speedup=1.0))  # -50%
        )
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert len(problems) == 1
        assert "parallel.speedup_parallel_n256" in problems[0]
        assert "fell below" in problems[0]

    def test_overhead_rise_flagged_beyond_abs_slack(self, bench_dir,
                                                    trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_engine.json").write_text(
            json.dumps(engine_manifest(overhead=4.5))  # 1% -> 4.5%
        )
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("monitor_overhead_pct" in p and "rose above" in p
                   for p in problems)

    def test_overhead_jitter_inside_abs_slack_passes(self, bench_dir,
                                                     trajectory):
        # 1% -> 2.5% is 150% relative, but within the 2-point absolute
        # slack for near-zero percentage metrics
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_engine.json").write_text(
            json.dumps(engine_manifest(overhead=2.5))
        )
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []

    def test_bitwise_flip_is_exact_failure(self, bench_dir, trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        (bench_dir / "BENCH_sim.json").write_text(
            json.dumps(sim_manifest(identical=False))
        )
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("bitwise_identical" in p for p in problems)

    def test_missing_row_reported(self, bench_dir, trajectory):
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("no recorded trajectory row" in p for p in problems)

    def test_new_metric_without_baseline_is_not_a_regression(self, bench_dir,
                                                             trajectory):
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        traj = json.loads(trajectory.read_text())
        del traj["benches"]["engine"][0]["metrics"]["monitor_overhead_pct"]
        trajectory.write_text(json.dumps(traj))
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []


class TestPerfHeadlines:
    def write_perf(self, bench_dir, **kw):
        (bench_dir / "BENCH_perf.json").write_text(
            json.dumps(perf_manifest(**kw))
        )

    def test_extractor_shapes_the_row(self):
        row = collect.extract_perf(perf_manifest())
        assert row["p50_round_wall_s"]["better"] == "lower"
        assert row["p50_round_wall_s"]["unit"] == "seconds"
        assert row["top_phase"]["better"] == "none"
        assert row["diff_zero"]["better"] == "exact"

    def test_round_time_jitter_inside_abs_slack_passes(self, bench_dir,
                                                       trajectory):
        # 1.4 ms -> 4 ms is ~186% relative, but under the 5 ms absolute
        # slack for sub-millisecond wall-time metrics on shared machines
        self.write_perf(bench_dir)
        collect.record("PR8", path=trajectory, bench_dir=bench_dir)
        self.write_perf(bench_dir, p50=0.004)
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []

    def test_gross_round_time_regression_flagged(self, bench_dir, trajectory):
        self.write_perf(bench_dir)
        collect.record("PR8", path=trajectory, bench_dir=bench_dir)
        self.write_perf(bench_dir, p50=0.05)  # 1.4 ms -> 50 ms
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("perf.p50_round_wall_s" in p and "rose above" in p
                   for p in problems)

    def test_top_phase_shift_is_informational_not_gated(self, bench_dir,
                                                        trajectory):
        self.write_perf(bench_dir, top_phase="trainer.upload")
        collect.record("PR8", path=trajectory, bench_dir=bench_dir)
        self.write_perf(bench_dir, top_phase="trainer.mechanism")
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []
        # but the shift is recorded in the trajectory for attribution
        collect.record("PR9", path=trajectory, bench_dir=bench_dir)
        rows = json.loads(trajectory.read_text())["benches"]["perf"]
        assert [r["metrics"]["top_phase"]["value"] for r in rows] == [
            "trainer.upload", "trainer.mechanism",
        ]

    def test_contract_flip_is_exact_failure(self, bench_dir, trajectory):
        self.write_perf(bench_dir)
        collect.record("PR8", path=trajectory, bench_dir=bench_dir)
        self.write_perf(bench_dir, identical=False)
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("probe_trace_identical" in p for p in problems)


def service_manifest(rps=300.0, overhead=0.2, identical=True, alerts=0):
    return {
        "rounds_per_sec": rps, "snapshot_overhead_pct": overhead,
        "resume_identical": identical, "trace_identical": identical,
        "roundtrip_ok": True, "rss_growth_alerts": alerts,
    }


class TestServiceHeadlines:
    def write_service(self, bench_dir, **kw):
        (bench_dir / "BENCH_service.json").write_text(
            json.dumps(service_manifest(**kw))
        )

    def test_extractor_shapes_the_row(self):
        row = collect.extract_service(service_manifest())
        assert row["rounds_per_sec"]["better"] == "higher"
        assert row["snapshot_overhead_pct"]["unit"] == "pct"
        assert row["resume_identical"]["better"] == "exact"
        assert row["rss_growth_alerts"]["better"] == "exact"

    def test_identity_flip_is_exact_failure(self, bench_dir, trajectory):
        self.write_service(bench_dir)
        collect.record("PR9", path=trajectory, bench_dir=bench_dir)
        self.write_service(bench_dir, identical=False)
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("service.resume_identical" in p for p in problems)

    def test_overhead_jitter_inside_abs_slack_passes(self, bench_dir,
                                                     trajectory):
        # sub-1% overhead wobbles are jitter, not regressions
        self.write_service(bench_dir)
        collect.record("PR9", path=trajectory, bench_dir=bench_dir)
        self.write_service(bench_dir, overhead=1.5)
        assert collect.check(path=trajectory, bench_dir=bench_dir) == []

    def test_new_rss_alert_is_exact_failure(self, bench_dir, trajectory):
        self.write_service(bench_dir)
        collect.record("PR9", path=trajectory, bench_dir=bench_dir)
        self.write_service(bench_dir, alerts=2)
        problems = collect.check(path=trajectory, bench_dir=bench_dir)
        assert any("rss_growth_alerts" in p for p in problems)


class TestAtomicWrite:
    def test_record_leaves_no_temp_file(self, bench_dir, trajectory):
        collect.record("PR9", path=trajectory, bench_dir=bench_dir)
        assert trajectory.exists()
        leftovers = [
            p for p in trajectory.parent.iterdir() if p.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_record_replaces_not_truncates(self, bench_dir, trajectory,
                                           monkeypatch):
        """A crash mid-record must leave the previous trajectory intact."""
        collect.record("PR8", path=trajectory, bench_dir=bench_dir)
        before = trajectory.read_text()

        def boom(tmp, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(collect.os, "replace", boom)
        with pytest.raises(OSError):
            collect.record("PR9", path=trajectory, bench_dir=bench_dir)
        # the published file still holds the pre-crash contents
        assert trajectory.read_text() == before


class TestShow:
    def test_renders_one_line_per_row(self, bench_dir, trajectory):
        collect.record("PR4", path=trajectory, bench_dir=bench_dir)
        collect.record("PR5", path=trajectory, bench_dir=bench_dir)
        lines = collect.show(path=trajectory)
        assert "=== engine" in lines
        # two labels for each of the three fixture benches
        assert sum(1 for l in lines if l.strip().startswith("PR")) == 6


class TestRepoTrajectory:
    def test_committed_trajectory_matches_committed_manifests(self):
        # the real CI gate: the repo's own BENCH_trajectory.json must be
        # consistent with the manifests checked in next to it
        assert collect.check() == []
