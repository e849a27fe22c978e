"""Tests for the lossy message-passing network."""

import warnings

import numpy as np
import pytest

from repro.comm import Network
from repro.telemetry import Telemetry, set_telemetry


class TestSendRecv:
    def test_roundtrip(self):
        net = Network(3)
        assert net.send(0, 1, "grad", np.arange(4.0))
        msg = net.recv(1, 0, "grad")
        np.testing.assert_array_equal(msg.payload, np.arange(4.0))
        assert msg.src == 0 and msg.dst == 1 and msg.tag == "grad"

    def test_fifo_order_per_link(self):
        net = Network(2)
        net.send(0, 1, "t", 1)
        net.send(0, 1, "t", 2)
        assert net.recv(1, 0, "t").payload == 1
        assert net.recv(1, 0, "t").payload == 2

    def test_tags_are_isolated(self):
        net = Network(2)
        net.send(0, 1, "a", "first")
        net.send(0, 1, "b", "second")
        assert net.recv(1, 0, "b").payload == "second"
        assert net.recv(1, 0, "a").payload == "first"

    def test_empty_recv_returns_none(self):
        net = Network(2)
        assert net.recv(1, 0, "none") is None

    def test_rank_validation(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.send(0, 5, "t", 1)
        with pytest.raises(ValueError):
            net.recv(-1, 0, "t")

    def test_pending(self):
        net = Network(2)
        net.send(0, 1, "t", 1)
        net.send(0, 1, "t", 2)
        assert net.pending(1, 0, "t") == 2
        net.recv(1, 0, "t")
        assert net.pending(1, 0, "t") == 1


class TestFailureInjection:
    def test_no_drops_by_default(self):
        net = Network(2, seed=0)
        assert all(net.send(0, 1, "t", i) for i in range(100))
        assert net.drop_log.count() == 0

    def test_global_drop_rate_approximate(self):
        net = Network(2, drop_prob=0.3, seed=1)
        sent = sum(net.send(0, 1, "t", i) for i in range(2000))
        assert 0.6 < sent / 2000 < 0.8
        assert net.drop_log.count() == 2000 - sent

    def test_per_link_override(self):
        net = Network(3, drop_prob=0.0, seed=2)
        net.set_link_drop_prob(0, 1, 1.0)
        assert not net.send(0, 1, "t", 1)
        assert net.send(0, 2, "t", 1)

    def test_drop_log_filters(self):
        net = Network(3, seed=0)
        net.set_link_drop_prob(0, 1, 1.0)
        net.set_link_drop_prob(2, 1, 1.0)
        net.send(0, 1, "t", 1)
        net.send(2, 1, "t", 1)
        assert net.drop_log.count(src=0) == 1
        assert net.drop_log.count(dst=1) == 2

    def test_invalid_drop_prob(self):
        # the endpoints 0.0 and 1.0 are valid in both the constructor and
        # the per-link override (a prob-1.0 link is a dead link)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                Network(2, drop_prob=bad)
        net = Network(2, drop_prob=1.0)
        with pytest.raises(ValueError):
            net.set_link_drop_prob(0, 1, -0.1)
        with pytest.raises(ValueError):
            net.set_link_drop_prob(0, 1, 1.1)
        net.set_link_drop_prob(0, 1, 1.0)  # endpoint accepted

    def test_fully_dead_network_drops_everything(self):
        net = Network(2, drop_prob=1.0, seed=0)
        assert not any(net.send(0, 1, "t", i) for i in range(50))
        assert net.drop_log.count() == 50
        assert net.recv(1, 0, "t") is None
        assert net.total_bytes() == 0

    def test_blocked_link_drops_without_rng(self):
        # Two networks, same seed: blocking a link must not consume drop
        # draws, so the other link's drop pattern is unchanged.
        a = Network(3, drop_prob=0.5, seed=9)
        b = Network(3, drop_prob=0.5, seed=9)
        b.block_link(0, 1)
        pattern_a = [a.send(0, 2, "t", i) for i in range(40)]
        for i in range(40):
            assert not b.send(0, 1, "t", i)
        pattern_b = [b.send(0, 2, "t", i) for i in range(40)]
        assert pattern_a == pattern_b
        b.unblock_link(0, 1)
        assert b.pending(1, 0, "t") == 0  # blocked sends never queued

    def test_set_blocked_links_replaces(self):
        net = Network(3)
        net.block_link(0, 1)
        net.set_blocked_links({(1, 2)})
        assert net.send(0, 1, "t", 1)  # old block lifted
        assert not net.send(1, 2, "t", 1)
        with pytest.raises(ValueError):
            net.set_blocked_links({(0, 9)})

    def test_down_node_is_every_link_blocked(self):
        # Same seed, same sends: a down node must drop exactly what
        # blocking each of its links drops, draw for draw.
        a = Network(4, drop_prob=0.3, seed=7)
        b = Network(4, drop_prob=0.3, seed=7)
        a.set_down_nodes({2})
        for other in range(4):
            b.block_link(2, other)
            b.block_link(other, 2)
        for src in range(4):
            for dst in range(4):
                assert a.send(src, dst, "t", 1) == b.send(src, dst, "t", 1)
        assert a.drop_log.drops == b.drop_log.drops
        assert a._rng.bit_generator.state == b._rng.bit_generator.state
        a.set_down_nodes(())
        assert a.send(2, 0, "t", 1)
        with pytest.raises(ValueError):
            a.set_down_nodes({4})


class TestCollectives:
    def test_bcast_reaches_all(self):
        net = Network(4)
        reached = net.bcast(0, [1, 2, 3], "model", np.zeros(3))
        assert reached == [1, 2, 3]
        for d in (1, 2, 3):
            assert net.recv(d, 0, "model") is not None

    def test_gather_collects_present(self):
        net = Network(4)
        net.send(1, 0, "g", "one")
        net.send(3, 0, "g", "three")
        got = net.gather(0, [1, 2, 3], "g")
        assert got == {1: "one", 3: "three"}

    def test_scatter_distinct_payloads(self):
        net = Network(3)
        net.scatter(0, {1: "a", 2: "b"}, "slice")
        assert net.recv(1, 0, "slice").payload == "a"
        assert net.recv(2, 0, "slice").payload == "b"


class TestAccounting:
    def test_array_bytes_counted(self):
        net = Network(2)
        net.send(0, 1, "g", np.zeros(10))  # 80 bytes
        assert net.bytes_sent[(0, 1)] == 80
        assert net.total_bytes() == 80

    def test_nested_payload_bytes(self):
        net = Network(2)
        net.send(0, 1, "g", {"a": np.zeros(2), "b": [np.zeros(3), 1.5]})
        assert net.total_bytes() == 16 + 24 + 8

    def test_dropped_messages_not_counted(self):
        net = Network(2, seed=0)
        net.set_link_drop_prob(0, 1, 1.0)
        net.send(0, 1, "g", np.zeros(10))
        assert net.total_bytes() == 0

    def test_reset_stats_keeps_queues(self):
        net = Network(2)
        net.send(0, 1, "g", np.zeros(4))
        net.reset_stats()
        assert net.total_bytes() == 0
        assert net.recv(1, 0, "g") is not None

    def test_delivered_counter(self):
        net = Network(2)
        net.send(0, 1, "g", 1)
        net.recv(1, 0, "g")
        assert net.messages_delivered == 1

    def test_unknown_payload_type_falls_back_to_getsizeof(self):
        class Opaque:
            pass

        net = Network(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            net.send(0, 1, "g", Opaque())
            net.send(0, 1, "g", Opaque())  # second send: no new warning
        fallback = [w for w in caught if "byte accounting" in str(w.message)]
        assert len(fallback) == 1
        assert issubclass(fallback[0].category, RuntimeWarning)
        # sys.getsizeof is never 0 for a real object
        assert net.total_bytes() > 0


class TestTelemetryCounters:
    """comm.* counters mirror the network's own accounting."""

    def _fresh_hub(self):
        tele = Telemetry()
        previous = set_telemetry(tele)
        return tele, previous

    def test_bytes_drops_delivered_counters(self):
        tele, previous = self._fresh_hub()
        try:
            net = Network(3, seed=0)
            net.set_link_drop_prob(0, 2, 1.0)
            net.send(0, 1, "g", np.zeros(10))  # 80 bytes, accepted
            net.send(0, 2, "g", np.zeros(10))  # dropped
            net.block_link(1, 2)
            net.send(1, 2, "g", 1)  # blocked => dropped
            net.recv(1, 0, "g")
            counters = tele.snapshot()["counters"]
            assert counters["comm.bytes_sent"] == 80
            assert counters["comm.drops"] == 2
            assert counters["comm.messages_delivered"] == 1
        finally:
            set_telemetry(previous)
