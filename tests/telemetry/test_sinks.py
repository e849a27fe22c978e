"""Sinks and the canonical JSONL trace encoding."""

import json

import numpy as np
import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    Telemetry,
    TickClock,
    decode_event,
    encode_event,
    read_trace,
)


class TestEncoding:
    def test_canonical_form_sorted_keys_no_whitespace(self):
        line = encode_event({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == '{"a":{"y":3,"z":2},"b":1}'

    def test_round_trip(self):
        event = {"type": "span", "name": "p", "dur_s": 0.25, "seq": 4}
        assert decode_event(encode_event(event)) == event

    def test_numpy_and_set_coercion(self):
        event = {
            "f": np.float64(0.5),
            "i": np.int64(3),
            "a": np.arange(3),
            "s": {2, 1},
        }
        assert decode_event(encode_event(event)) == {
            "f": 0.5, "i": 3, "a": [0, 1, 2], "s": [1, 2],
        }

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            encode_event({"x": float("nan")})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            encode_event({"x": object()})


class TestMemorySink:
    def test_bounded_ring_drops_oldest(self):
        sink = MemorySink(maxlen=3)
        for i in range(5):
            sink.emit([{"seq": i}])
        assert [ev["seq"] for ev in sink.events] == [2, 3, 4]


class TestJsonlSink:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tele = Telemetry(
            sinks=[MemorySink(), JsonlSink(path)], clock=TickClock()
        )
        with tele.span("round", kind="round", round=0):
            with tele.phase("round.phase"):
                pass
        tele.gauge("m", 1.5)
        tele.event("fifl.round", {"round": 0, "flagged": [3, 5]})
        tele.close()

        from_file = read_trace(path)
        in_memory = tele.events()
        # the file is the canonical encoding of exactly the same stream
        assert from_file == [
            decode_event(encode_event(ev)) for ev in in_memory
        ]
        assert [ev["seq"] for ev in from_file] == list(range(len(from_file)))
        assert all(ev["v"] == SCHEMA_VERSION for ev in from_file)
        assert from_file[-1]["data"]["flagged"] == [3, 5]

    def test_each_event_is_one_json_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit([{"seq": 0}])
            sink.emit([{"seq": 1}])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RuntimeError):
            sink.emit([{"seq": 0}])


class TestJsonlDurability:
    def test_flush_drains_userspace_buffers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit([{"seq": 0}])
        sink.flush()
        # readable from a second handle without closing the sink — the
        # property a kill/resume differential reads traces through
        assert path.read_text().splitlines() == ['{"seq":0}']
        sink.close()

    def test_fsync_on_flush_syncs_file(self, tmp_path, monkeypatch):
        import repro.telemetry.sinks as sinks_mod

        synced = []
        monkeypatch.setattr(sinks_mod.os, "fsync", synced.append)
        sink = JsonlSink(tmp_path / "t.jsonl", fsync_on_flush=True)
        sink.emit([{"seq": 0}])
        sink.flush()
        assert len(synced) == 1
        sink.close()  # close flushes again
        assert len(synced) == 2

    def test_fsync_off_by_default(self, tmp_path, monkeypatch):
        import repro.telemetry.sinks as sinks_mod

        synced = []
        monkeypatch.setattr(sinks_mod.os, "fsync", synced.append)
        with JsonlSink(tmp_path / "t.jsonl") as sink:
            sink.emit([{"seq": 0}])
            sink.flush()
        assert synced == []

    def test_flush_after_close_is_noop(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl", fsync_on_flush=True)
        sink.close()
        sink.flush()  # must not raise on the closed handle

    def test_hub_flush_fans_out_to_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tele = Telemetry(
            sinks=[MemorySink(), JsonlSink(path, fsync_on_flush=True)],
            clock=TickClock(),
        )
        tele.event("fifl.round", {"round": 0})
        tele.flush()
        # without the fan-out the bytes would still sit in userspace
        assert len(path.read_text().splitlines()) == 1
        tele.close()
