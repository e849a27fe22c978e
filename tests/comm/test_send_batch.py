"""``Network.send_batch`` against the per-message ``send`` loop it batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Network
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.telemetry import Telemetry, set_telemetry

from tests.comm.per_message import send_loop

NODES = 6
ranks = st.integers(0, NODES - 1)
links = st.tuples(ranks, ranks)


@st.composite
def exchanges(draw):
    """A network configuration plus one to three batched sends on it."""
    blocked = draw(st.sets(links, max_size=8))
    down = draw(st.sets(ranks, max_size=2))
    overrides = draw(
        st.dictionaries(
            links,
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            max_size=10,
        )
    )
    default = draw(st.sampled_from([0.0, 0.02, 1.0]))
    batches = []
    for k in range(draw(st.integers(1, 3))):
        srcs = draw(st.lists(ranks, max_size=5))
        dsts = draw(st.lists(ranks, max_size=5))
        nbytes = draw(st.lists(st.integers(0, 64), min_size=len(dsts),
                               max_size=len(dsts)))
        received = draw(st.sampled_from([None, "after", "each"]))
        batches.append((srcs, dsts, f"t{k}", nbytes, received))
    return blocked, down, overrides, default, batches, draw(st.integers(0, 2**16))


def _run(exchange, batched):
    blocked, down, overrides, default, batches, seed = exchange
    hub = Telemetry(sinks=[])
    previous = set_telemetry(hub)
    try:
        net = Network(NODES, drop_prob=default, seed=seed)
        for src, dst in sorted(blocked):
            net.block_link(src, dst)
        net.set_down_nodes(down)
        for (src, dst), p in overrides.items():
            net.set_link_drop_prob(src, dst, p)
        send = net.send_batch if batched else (
            lambda *args, **kw: send_loop(net, *args, **kw)
        )
        masks = [send(srcs, dsts, tag, nbytes, received=received)
                 for srcs, dsts, tag, nbytes, received in batches]
    finally:
        set_telemetry(previous)
    return net, masks, list(hub.snapshot()["counters"].items())


@settings(max_examples=300, deadline=None)
@given(exchange=exchanges())
def test_send_batch_matches_per_message_loop(exchange):
    net_b, masks_b, counters_b = _run(exchange, batched=True)
    net_l, masks_l, counters_l = _run(exchange, batched=False)
    for mb, ml in zip(masks_b, masks_l):
        assert mb.dtype == bool and mb.shape == ml.shape
        assert np.array_equal(mb, ml)
    assert net_b._rng.bit_generator.state == net_l._rng.bit_generator.state
    assert net_b.drop_log.drops == net_l.drop_log.drops
    assert list(net_b.bytes_sent.items()) == list(net_l.bytes_sent.items())
    assert net_b.messages_sent == net_l.messages_sent
    assert net_b.messages_delivered == net_l.messages_delivered
    # by value and by first-touch key order
    assert counters_b == counters_l
    assert all(type(v) is int for _, v in counters_b)
    # the batch queues nothing; the loop's queues are drained or unread
    assert not net_b._queues and not net_b._tag_keys


class TestSendBatchContract:
    def test_bad_rank_raises_before_sending(self):
        net = Network(3, seed=0)
        with pytest.raises(ValueError, match="rank 3 outside"):
            net.send_batch([0, 1], [2, 3], "t", 8)
        with pytest.raises(ValueError, match="rank -1 outside"):
            net.send_batch([-1], [0], "t", 8)
        assert net.messages_sent == 0

    def test_rejects_unknown_receive_mode(self):
        with pytest.raises(ValueError, match="received"):
            Network(2).send_batch([0], [1], "t", 8, received="later")

    def test_latency_network_refuses_batching(self):
        sim = Simulator(seed=0)
        net = Network(2, latency=ConstantLatency(0.01), sim=sim)
        with pytest.raises(RuntimeError, match="instant links"):
            net.send_batch([0], [1], "t", 8)

    def test_empty_grid_touches_nothing(self):
        hub = Telemetry(sinks=[])
        previous = set_telemetry(hub)
        try:
            net = Network(2, drop_prob=0.5, seed=1)
            state = net._rng.bit_generator.state
            mask = net.send_batch([], [0, 1], "t", [8, 8])
        finally:
            set_telemetry(previous)
        assert mask.shape == (0, 2)
        assert net._rng.bit_generator.state == state
        assert hub.snapshot()["counters"] == {}
