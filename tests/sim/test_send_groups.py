"""Send groups on the virtual clock against the per-message actors they batch.

A simulated round sends each group of workers that finish local compute
at the same virtual time with one batched send, resolves every
``(worker, server)`` slice from arrays, and lands each batch's
deliveries as one simulator event. The per-message path it replaced —
one generator actor per worker, one ``send`` per slice, ``recv`` polled
after every batch of events (``tests/comm/per_message.py``) — is the
oracle: a seeded run must match it round by round, in the records, the
drop log, all three generator states, the virtual clock (after each
round and after a checkpoint-style drain of the heap), the counters and
their key order and the latency histogram, and in the JSONL trace bytes.
"""

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import make_mechanism
from repro.fl import FederatedTrainer
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.sim import (
    ConstantLatency,
    FaultScenario,
    LatencyConfig,
    PerLinkLatency,
    UniformLatency,
    make_latency,
)
from repro.telemetry import JsonlSink, Telemetry, TickClock, set_telemetry

from tests.comm.per_message import PerMessageTrainer
from tests.helpers import N_CLASSES, N_FEATURES, make_federation

NODES = 6
SERVERS = [0, 1]

LATENCIES = {
    "none": None,
    "constant": LatencyConfig("constant", 0.01),
    "constant-per-byte": LatencyConfig("constant", 0.005, per_byte_s=1e-5),
    "constant-zero": LatencyConfig("constant", 0.0),
    "uniform": LatencyConfig("uniform", 0.005, 0.03),
    "uniform-point": LatencyConfig("uniform", 0.01, 0.01),
    "lognormal": LatencyConfig("lognormal", 0.01, 1.0),
}
ranks = st.integers(0, NODES - 1)


@st.composite
def runs(draw):
    rounds = draw(st.integers(2, 4))
    churn = draw(
        st.lists(
            st.tuples(
                st.integers(0, rounds - 1), ranks,
                st.sampled_from(["leave", "join"]),
            ),
            max_size=3,
        )
    )
    partitions = []
    if draw(st.booleans()):
        start = draw(st.integers(0, rounds - 1))
        a, b = draw(st.lists(ranks, min_size=2, max_size=2, unique=True))
        partitions.append((start, draw(st.integers(start + 1, rounds)), (a,), (b,)))
    scenario = FaultScenario(
        name="groups",
        latency=LATENCIES[draw(st.sampled_from(sorted(LATENCIES)))],
        round_timeout_s=draw(st.sampled_from([None, 0.015, 0.05])),
        max_retries=draw(st.integers(0, 3)),
        retry_backoff_s=draw(st.sampled_from([0.01, 0.05])),
        backoff_factor=draw(st.sampled_from([1.0, 2.0])),
        base_compute_s=draw(st.sampled_from([0.0, 0.0, 0.02])),
        straggler_rate=draw(st.sampled_from([0.0, 0.5])),
        straggler_slowdown=draw(st.sampled_from([1.0, 5.0])),
        churn=tuple(sorted(churn)),
        partitions=tuple(partitions),
        seed=draw(st.integers(0, 3)),
    )
    return {
        "scenario": scenario,
        "drop_prob": draw(st.sampled_from([0.0, 0.02, 0.3, 1.0])),
        "per_link": draw(st.booleans()),
        "fail": draw(st.one_of(st.none(), ranks)),
        # per-worker compute times: groups firing at different times
        "compute": draw(
            st.dictionaries(ranks, st.sampled_from([0.0, 0.01, 0.04, 0.1]),
                            max_size=3)
        ),
        "rounds": rounds,
        "drain_after": draw(st.sets(st.integers(0, rounds - 1))),
        "seed": draw(st.integers(0, 2**16)),
    }


def _run(cls, spec, path):
    hub = Telemetry(sinks=[JsonlSink(path)], clock=TickClock())
    previous = set_telemetry(hub)
    rounds = []
    try:
        workers, _, test = make_federation(num_workers=NODES, n_samples=240, seed=3)
        for wid, seconds in spec["compute"].items():
            workers[wid].compute_time = seconds
        trainer = cls(
            build_logreg(N_FEATURES, N_CLASSES, seed=3),
            population=WorkerPopulation.from_workers(workers),
            server_ranks=SERVERS,
            test_data=test,
            mechanism=make_mechanism("fifl", engine="vectorized"),
            drop_prob=spec["drop_prob"],
            seed=spec["seed"],
            scenario=spec["scenario"],
        )
        net, sim = trainer.network, trainer._sim_runner.sim
        if spec["per_link"]:
            net.latency = PerLinkLatency(
                make_latency(spec["scenario"].latency) or ConstantLatency(0.0),
                {(2, 0): ConstantLatency(0.05), (0, 3): UniformLatency(0.0, 0.02)},
            )
        if spec["fail"] is not None:
            trainer.fail_node(spec["fail"])
        with np.errstate(all="ignore"):
            for t in range(spec["rounds"]):
                record = trainer.run_round(t)
                clock = [sim.now]
                if t in spec["drain_after"]:
                    sim.run()
                    clock.append(sim.now)
                rounds.append((
                    pickle.dumps(record),
                    clock,
                    list(net.drop_log.drops),
                    net._rng.bit_generator.state,
                    net._lat_rng.bit_generator.state,
                    sim.rng.bit_generator.state,
                    list(hub.snapshot()["counters"].items()),
                    hub.metrics_snapshot()["histograms"].get("sim.latency"),
                    net.messages_sent,
                    net.messages_delivered,
                    list(net.bytes_sent.items()),
                ))
        sim.run()
        end = (sim.now, net.in_flight, list(hub.snapshot()["counters"].items()))
    finally:
        hub.close()
        set_telemetry(previous)
    return rounds, end, path.read_bytes()


#: worker 5 finishes after the first slices land, and its slice for
#: server 0 is blocked: ``comm.drops`` is first counted after
#: ``comm.messages_delivered``, in the middle of the round
LATE_DROP = {
    "scenario": FaultScenario(
        name="late-drop",
        latency=LatencyConfig("constant", 0.01),
        partitions=((0, 1, (5,), (0,)),),
    ),
    "drop_prob": 0.0,
    "per_link": False,
    "fail": None,
    "compute": {5: 0.1},
    "rounds": 2,
    "drain_after": set(),
    "seed": 1,
}


@settings(max_examples=120, deadline=None)
@given(spec=runs())
@example(spec=LATE_DROP)
def test_send_groups_match_per_message_actors(spec, tmp_path_factory):
    root = tmp_path_factory.mktemp("groups")
    batched = _run(FederatedTrainer, spec, root / "batched.jsonl")
    loop = _run(PerMessageTrainer, spec, root / "loop.jsonl")
    for t, (b, lp) in enumerate(zip(batched[0], loop[0])):
        assert b == lp, f"round {t}"
    assert batched[1] == loop[1]
    assert batched[2] == loop[2]
