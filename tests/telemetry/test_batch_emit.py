"""The sink protocol: each flush hands every sink one ``emit(events)`` call.

The hub materializes its queue (plain events, span tuples and deferred
thunks) into one list in ``seq`` order and gives that same list to each
sink once, so the memory ring, the JSONL file and the monitor all see
one stream.
"""

import json

import pytest

from repro.monitor import Monitor, MonitorConfig, MonitorError
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    TickClock,
    decode_event,
    encode_event,
    read_trace,
)


def _batches(sink) -> list[list[dict]]:
    """Record every batch the hub hands ``sink`` (then pass it on)."""
    seen = []
    emit = sink.emit

    def spy(events):
        seen.append(list(events))
        emit(events)

    sink.emit = spy
    return seen


def _deferred(tele):
    return [
        {"type": "metric", "kind": "gauge", "name": "deferred", "value": 2.0},
        {"type": "deferred", "data": {"i": 1}},
    ]


def test_one_flush_reaches_every_sink_once_in_seq_order(tmp_path):
    path = tmp_path / "t.jsonl"
    memory = MemorySink(maxlen=None)
    jsonl = JsonlSink(path)
    monitor = Monitor(MonitorConfig())
    hub = Telemetry(sinks=[memory, jsonl], clock=TickClock())
    monitor.install(hub)
    seen = {sink: _batches(sink) for sink in (memory, jsonl, monitor)}

    hub.event("before", {"i": 0})
    with hub.span("outer", kind="round"):
        with hub.phase("inner"):
            pass
    hub.defer(_deferred, (), 2)
    hub.gauge("loss", 0.5)
    hub.flush()
    hub.flush()  # nothing pending: no sink is called again

    assert all(len(batches) == 1 for batches in seen.values())
    stream = seen[memory][0]
    assert [ev["seq"] for ev in stream] == list(range(6))
    assert [(ev["type"], ev.get("name")) for ev in stream] == [
        ("before", None), ("span", "inner"), ("span", "outer"),
        ("metric", "deferred"), ("deferred", None), ("metric", "loss"),
    ]
    # the very same dicts, in the same order, reach every sink
    for batches in seen.values():
        assert [id(ev) for ev in batches[0]] == [id(ev) for ev in stream]
    assert list(memory.events) == stream
    assert list(monitor.recorder.ring) == stream
    jsonl.close()
    assert read_trace(path) == [decode_event(encode_event(ev)) for ev in stream]


def test_replacing_a_sink_between_flushes_redirects_events():
    first, second = MemorySink(), MemorySink()
    hub = Telemetry(sinks=[first], clock=TickClock())
    hub.event("a", {})
    hub.flush()
    hub.sinks[0] = second
    hub.event("b", {})
    hub.flush()
    assert [ev["type"] for ev in first.events] == ["a"]
    assert [ev["type"] for ev in second.events] == ["b"]


def test_strict_monitor_raises_after_recording_the_offending_event(tmp_path):
    path = tmp_path / "t.jsonl"
    jsonl = JsonlSink(path)
    after = MemorySink(maxlen=None)
    monitor = Monitor(MonitorConfig(
        strict=True, postmortem_dir=str(tmp_path), run_id="strict"))
    hub = Telemetry(sinks=[jsonl], clock=TickClock())
    monitor.install(hub)
    hub.sinks.append(after)

    hub.event("before", {})
    # a block whose parent was never committed: ledger-chain fires
    hub.event("ledger.commit",
              {"index": 0, "prev_hash": "unknown", "hash": "h0", "round": 0})
    hub.event("after", {})
    with pytest.raises(MonitorError):
        hub.flush()

    assert [ev["seq"] for ev in monitor.recorder.ring] == [0, 1]
    assert [a.rule for a in monitor.alerts] == ["ledger-chain"]
    dump = (tmp_path / "postmortem-strict.jsonl").read_text().splitlines()
    assert [json.loads(line)["seq"] for line in dump[1:]] == [0, 1]
    # a sink before the monitor holds the whole flushed batch, the
    # offending event and what followed it; a sink after holds none
    jsonl.close()
    assert [ev["seq"] for ev in read_trace(path)] == [0, 1, 2]
    assert list(after.events) == []
