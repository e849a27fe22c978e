"""Execution-backend contract tests: ordered reduce, stats, crash paths."""

import time

import numpy as np
import pytest

from repro.parallel import (
    BACKENDS,
    SerialBackend,
    ThreadBackend,
    auto_workers,
    emit_parallel_telemetry,
    make_backend,
)
from repro.telemetry import MemorySink, Telemetry


def _square(x):
    return x * x


def _add(a, b=0):
    return a + b


def _boom():
    raise ValueError("shard exploded")


def _slow_square(x):
    # task 0 deliberately finishes last, exposing any as-completed reduce
    time.sleep(0.05 if x == 0 else 0.0)
    return x * x


@pytest.fixture(params=BACKENDS)
def backend(request):
    b = make_backend(request.param, max_workers=2)
    yield b
    b.close()


class TestOrderedReduce:
    def test_results_in_task_order(self, backend):
        assert backend.map(_square, [(i,) for i in range(17)]) == [
            i * i for i in range(17)
        ]

    def test_order_independent_of_finish_time(self, backend):
        assert backend.map(_slow_square, [(i,) for i in range(6)]) == [
            i * i for i in range(6)
        ]

    def test_kwargs_task_form(self, backend):
        assert backend.run([(_add, (2,), {"b": 3})]) == [5]

    def test_empty_run(self, backend):
        assert backend.run([]) == []
        assert backend.last_stats == []

    def test_numpy_payloads_round_trip(self, backend):
        arrays = [np.full((3, 2), float(i)) for i in range(5)]
        for a, r in zip(arrays, backend.map(np.negative, [(a,) for a in arrays])):
            np.testing.assert_array_equal(r, -a)

    def test_persistent_across_dispatches(self, backend):
        for _ in range(3):
            assert backend.map(_square, [(i,) for i in range(5)]) == [
                0, 1, 4, 9, 16,
            ]


class TestStats:
    def test_one_stat_per_task(self, backend):
        backend.map(_square, [(i,) for i in range(7)])
        assert len(backend.last_stats) == 7
        for s in backend.last_stats:
            assert s["queue_wait_s"] >= 0.0
            assert s["run_s"] >= 0.0

    def test_telemetry_event_shape(self, backend):
        sink = MemorySink()
        hub = Telemetry(sinks=[sink])
        backend.map(_square, [(i,) for i in range(4)])
        emit_parallel_telemetry(hub, "unit.phase", backend)
        hub.flush()
        rounds = [e for e in sink.events if e.get("type") == "parallel.round"]
        assert len(rounds) == 1
        data = rounds[0]["data"]
        assert data["phase"] == "unit.phase"
        assert data["backend"] == backend.name
        assert data["shards"] == 4
        assert len(data["shard_s"]) == 4
        assert data["max_shard_s"] == max(data["shard_s"])

    def test_telemetry_noop_when_disabled(self, backend):
        backend.map(_square, [(1,)])
        emit_parallel_telemetry(Telemetry(enabled=False), "p", backend)
        emit_parallel_telemetry(None, "p", backend)


class TestCrash:
    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_inline_backends_reraise_original(self, name):
        b = make_backend(name, max_workers=2)
        try:
            with pytest.raises(ValueError, match="shard exploded"):
                b.run([(_boom, ())])
        finally:
            b.close()


class TestFactory:
    def test_instance_passes_through(self):
        b = SerialBackend()
        assert make_backend(b) is b

    def test_unknown_name_raises(self):
        for name in ("gpu", "process"):
            with pytest.raises(ValueError, match="backend"):
                make_backend(name)

    def test_nonpositive_workers_raise(self):
        with pytest.raises(ValueError):
            make_backend("thread", max_workers=0)

    @pytest.mark.parametrize("mw", [0, -1])
    def test_thread_constructor_rejects_nonpositive_workers(self, mw):
        # 0 is not "auto" (that is None): it must not build a full pool
        with pytest.raises(ValueError, match="max_workers"):
            ThreadBackend(max_workers=mw)

    def test_thread_none_means_auto(self):
        b = ThreadBackend(max_workers=None)
        try:
            assert b.pool_size == auto_workers()
        finally:
            b.close()

    def test_auto_workers_positive(self):
        assert auto_workers() >= 1

    @pytest.mark.parametrize("name", BACKENDS)
    def test_close_is_idempotent(self, name):
        b = make_backend(name, max_workers=1)
        b.close()
        b.close()

