"""``trace summary`` over parallel.round and resource.* streams."""

import json

from repro.trace import main as trace_main
from repro.telemetry.sinks import encode_event
from repro.telemetry.summary import parallel_summary, trace_summary


def parallel_round(seq=1, phase="fleet.local", backend="thread", pool=2,
                   shard_s=(0.02, 0.04), queue=(0.0, 0.001)):
    shard_s = list(shard_s)
    ordered = sorted(shard_s)
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else 0.5 * (ordered[mid - 1] + ordered[mid]))
    return {
        "v": 1, "seq": seq, "type": "parallel.round",
        "data": {"phase": phase, "backend": backend, "pool_size": pool,
                 "shards": len(shard_s), "shard_s": shard_s,
                 "queue_wait_s": list(queue), "max_shard_s": max(shard_s),
                 "median_shard_s": median},
    }


def resource_sample(seq=9, rnd=0, rss=64 << 20):
    return {
        "v": 1, "seq": seq, "type": "resource.sample",
        "data": {"round": rnd, "rss_bytes": rss, "gc_collections": 3,
                 "gc_pause_s_total": 0.004, "gc_pause_max_s": 0.003,
                 "blas_threads": 1},
    }


class TestParallelSummary:
    def test_none_for_serial_trace(self):
        assert parallel_summary([]) is None
        assert parallel_summary([{"type": "metric", "value": 1.0}]) is None

    def test_totals_across_dispatches(self):
        events = [
            parallel_round(seq=1, phase="fleet.local",
                           shard_s=(0.02, 0.04), queue=(0.0, 0.001)),
            parallel_round(seq=2, phase="fleet.upload",
                           shard_s=(0.01, 0.03), queue=(0.002, 0.0)),
        ]
        par = parallel_summary(events)
        assert par["dispatches"] == 2
        assert par["shards"] == 4
        assert par["run_s_total"] == round(0.02 + 0.04 + 0.01 + 0.03, 10)
        assert par["queue_wait_s_total"] == round(0.001 + 0.002, 10)
        assert set(par["by_phase"]) == {"fleet.local", "fleet.upload"}
        assert par["by_phase"]["fleet.local"]["shards"] == 2

    def test_worst_straggler_factor(self):
        events = [
            parallel_round(seq=1, shard_s=(0.01, 0.01, 0.05)),  # 5x median
            parallel_round(seq=2, shard_s=(0.01, 0.01, 0.02)),  # 2x median
        ]
        par = parallel_summary(events)
        assert par["straggler_factor_max"] == 5.0

    def test_trace_summary_carries_parallel_block(self):
        summary = trace_summary([parallel_round()])
        assert summary["parallel"]["dispatches"] == 1
        assert trace_summary([])["parallel"] is None


class TestSummarizeCli:
    def write(self, path, events):
        path.write_text(
            "\n".join(encode_event(e) for e in events) + "\n"
        )
        return path

    def test_parallel_block_rendered(self, tmp_path, capsys):
        path = self.write(tmp_path / "t.jsonl", [
            parallel_round(seq=1, phase="fleet.local"),
            parallel_round(seq=2, phase="fleet.upload"),
        ])
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "parallel execution: 2 dispatches" in out
        assert "worst straggler" in out
        assert "fleet.local" in out and "fleet.upload" in out

    def test_resource_line_rendered(self, tmp_path, capsys):
        path = self.write(tmp_path / "t.jsonl", [
            resource_sample(seq=1, rnd=0, rss=64 << 20),
            resource_sample(seq=2, rnd=1, rss=80 << 20),
        ])
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resource samples: 2" in out
        assert "peak=80.0 MiB" in out
        assert "growth=+16.0 MiB" in out

    def test_serial_trace_has_no_parallel_block(self, tmp_path, capsys):
        path = self.write(tmp_path / "t.jsonl", [
            {"v": 1, "seq": 1, "type": "span", "name": "trainer.run",
             "kind": "run", "depth": 1, "dur_s": 0.1, "attrs": {}},
        ])
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "parallel execution" not in out
        assert "resource samples" not in out

    def test_json_summary_includes_parallel(self, tmp_path, capsys):
        path = self.write(tmp_path / "t.jsonl", [parallel_round()])
        assert trace_main(["summary", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parallel"]["backend"] == "thread"
