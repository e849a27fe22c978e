"""Batched sends against the per-message ``send`` loop they batch."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Network, channel
from repro.sim import Simulator
from repro.sim.latency import (
    ConstantLatency,
    LognormalLatency,
    PerLinkLatency,
    UniformLatency,
)
from repro.telemetry import Telemetry, set_telemetry

from tests.comm.per_message import send_loop, send_pair_loop

NODES = 6
ranks = st.integers(0, NODES - 1)
links = st.tuples(ranks, ranks)

LATENCIES = {
    "instant": lambda: None,
    "constant": lambda: ConstantLatency(0.01),
    "constant-per-byte": lambda: ConstantLatency(0.0, per_byte_s=1e-3),
    "uniform": lambda: UniformLatency(0.001, 0.02, per_byte_s=1e-4),
    "lognormal": lambda: LognormalLatency(0.01, 1.0),
    "per-link": lambda: PerLinkLatency(
        LognormalLatency(0.01, 0.5),
        {(1, 2): ConstantLatency(0.5), (2, 1): UniformLatency(0.0, 0.1)},
    ),
}


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
    latency = draw(st.sampled_from(sorted(LATENCIES)))
    batches = []
    for k in range(draw(st.integers(1, 3))):
        pairs = draw(st.booleans())
        srcs = draw(st.lists(ranks, max_size=5))
        size = len(srcs) if pairs else draw(st.integers(0, 5))
        dsts = draw(st.lists(ranks, min_size=size, max_size=size))
        nbytes = draw(st.lists(st.integers(0, 64), min_size=len(dsts),
                               max_size=len(dsts)))
        received = (
            None if pairs or latency != "instant"
            else draw(st.sampled_from([None, "after", "each"]))
        )
        batches.append((pairs, srcs, dsts, f"t{k}", nbytes, received))
    return (blocked, down, overrides, default, latency, batches,
            draw(st.integers(0, 2**16)))


def _run(exchange, batched):
    blocked, down, overrides, default, latency, batches, seed = exchange
    hub = Telemetry(sinks=[])
    previous = set_telemetry(hub)
    try:
        sim = Simulator(seed=0)
        model = LATENCIES[latency]()
        net = Network(NODES, drop_prob=default, seed=seed, latency=model,
                      sim=sim if model is not None else None)
        for src, dst in sorted(blocked):
            net.block_link(src, dst)
        net.set_down_nodes(down)
        for (src, dst), p in overrides.items():
            net.set_link_drop_prob(src, dst, p)
        masks = []
        for pairs, srcs, dsts, tag, nbytes, received in batches:
            if pairs and batched:
                mask = ~np.isnan(net.send_pairs(srcs, dsts, tag, nbytes))
            elif pairs:
                mask = send_pair_loop(net, srcs, dsts, tag, nbytes)
            elif batched:
                mask = net.send_batch(srcs, dsts, tag, nbytes, received=received)
            else:
                mask = send_loop(net, srcs, dsts, tag, nbytes, received=received)
            masks.append(mask)
        in_flight = net.in_flight
        sim.run()
        histogram = hub.metrics_snapshot()["histograms"].get("sim.latency")
    finally:
        set_telemetry(previous)
    return (net, masks, list(hub.snapshot()["counters"].items()),
            (in_flight, net.in_flight, sim.now, histogram))


@settings(max_examples=300, deadline=None)
@given(exchange=exchanges())
def test_send_batch_matches_per_message_loop(exchange):
    net_b, masks_b, counters_b, clock_b = _run(exchange, batched=True)
    net_l, masks_l, counters_l, clock_l = _run(exchange, batched=False)
    for mb, ml in zip(masks_b, masks_l):
        assert mb.dtype == bool and mb.shape == ml.shape
        assert np.array_equal(mb, ml)
    assert net_b._rng.bit_generator.state == net_l._rng.bit_generator.state
    assert (
        net_b._lat_rng.bit_generator.state == net_l._lat_rng.bit_generator.state
    )
    assert net_b.drop_log.drops == net_l.drop_log.drops
    assert list(net_b.bytes_sent.items()) == list(net_l.bytes_sent.items())
    assert net_b.messages_sent == net_l.messages_sent
    assert net_b.messages_delivered == net_l.messages_delivered
    # by value and by first-touch key order
    assert counters_b == counters_l
    assert all(type(v) is int for _, v in counters_b)
    # messages in flight, the clock once they all landed, and the latency
    # histogram (sum included: it adds in message order)
    assert clock_b == clock_l
    # the batch queues nothing; the loop's queues are drained or unread
    assert not net_b._queues and not net_b._tag_keys


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(links, st.integers(0, 64)), max_size=6), max_size=5
    ),
    fold_at=st.integers(1, 8),
    reads=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_byte_tally_matches_a_per_message_dict(batches, fold_at, reads):
    """Folded in any grouping, read at any point: the same links, totals
    and first-message key order as one dict update per message."""
    want: dict = {}
    with mock.patch.object(channel, "_FOLD_AT", fold_at):
        net = Network(NODES, seed=0)
        for batch, read in zip(batches, reads):
            srcs = [src for (src, _), _ in batch]
            dsts = [dst for (_, dst), _ in batch]
            net.send_pairs(srcs, dsts, "t", [n for _, n in batch])
            for link, n in batch:
                want[link] = want.get(link, 0) + n
            if read:
                assert list(net.bytes_sent.items()) == list(want.items())
        assert net.total_bytes() == sum(want.values())
        assert list(net.bytes_sent.items()) == list(want.items())
        assert all(type(k) is int for link in net.bytes_sent for k in link)
        assert all(type(v) is int for v in net.bytes_sent.values())


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

    def test_latency_batch_lands_as_one_event(self):
        sim = Simulator(seed=0)
        net = Network(3, latency=UniformLatency(0.01, 0.02), sim=sim)
        delays = net.send_pairs([0, 0, 1], [1, 2, 2], "t", 8)
        assert delays.shape == (3,) and not np.isnan(delays).any()
        assert net.in_flight == 3 and len(sim._heap) == 1
        assert sim.peek() == delays.max()
        sim.run()
        assert net.in_flight == 0 and sim.now == delays.max()
        # arrivals are the caller's to account: nothing was queued
        assert not net._queues and net.messages_delivered == 0
        with pytest.raises(ValueError, match="delivers later"):
            net.send_batch([0], [1], "t", 8, received="after")

    def test_send_pairs_needs_one_destination_per_source(self):
        with pytest.raises(ValueError, match="2 sources for 1 destinations"):
            Network(3).send_pairs([0, 1], [2], "t", 8)

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
