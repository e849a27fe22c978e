"""Differential contract of the trainer's batched slice exchange.

Instant-link rounds move their slices with one ``Network.send_batch``
per direction. A seeded run must be byte-identical to the per-message
loops it replaced (``tests/comm/per_message.py``): round records, final
parameters, network accounting, telemetry counters (values and key
order) and the JSONL trace. The zero-delay simulated round replays the
same exchange and stays bit-identical to the direct run.
"""

import pickle

import numpy as np
import pytest

from repro.core import make_mechanism
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.service import snapshot
from repro.sim import FaultScenario
from repro.sim.latency import LatencyConfig
from repro.telemetry import JsonlSink, Telemetry, TickClock, set_telemetry

from tests.comm.per_message import PerMessageTrainer
from tests.helpers import N_CLASSES, N_FEATURES, make_federation, model_fn

WORKERS = 12
SERVERS = [0, 3]
ROUNDS = 8


def _build(cls, scenario=None, drop_prob=0.02, seed=5):
    workers, shards, test = make_federation(
        num_workers=WORKERS, n_samples=600, seed=seed
    )
    workers[9] = SignFlippingWorker(
        9, shards[9], model_fn(seed), p_s=4.0, lr=0.1, batch_size=32,
        local_iters=1, seed=seed + 109,
    )
    trainer = cls(
        build_logreg(N_FEATURES, N_CLASSES, seed=seed),
        population=WorkerPopulation.from_workers(workers),
        server_ranks=SERVERS,
        test_data=test,
        mechanism=make_mechanism("fifl", engine="vectorized"),
        server_lr=0.1,
        drop_prob=drop_prob,
        seed=seed,
        scenario=scenario,
    )
    trainer.fail_node(7)
    trainer.network.block_link(4, 3)
    return trainer


def _traced_run(cls, path, scenario=None, drop_prob=0.02):
    hub = Telemetry(sinks=[JsonlSink(path)], clock=TickClock())
    previous = set_telemetry(hub)
    try:
        trainer = _build(cls, scenario, drop_prob)
        with np.errstate(over="ignore", invalid="ignore"):
            history = trainer.run(ROUNDS, eval_every=2)
        counters = list(hub.snapshot()["counters"].items())
    finally:
        hub.close()
        set_telemetry(previous)
    net = trainer.network
    return {
        "records": pickle.dumps(history.rounds),
        "params": trainer.model.get_flat_params().tobytes(),
        "rng": net._rng.bit_generator.state,
        "drops": list(net.drop_log.drops),
        "bytes_sent": list(net.bytes_sent.items()),
        "sent": net.messages_sent,
        "delivered": net.messages_delivered,
        "counters": counters,
        "trace": path.read_bytes(),
        "uncertain": [r.uncertain for r in history.rounds],
    }


@pytest.fixture(scope="module")
def direct_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("exchange")
    return (
        _traced_run(FederatedTrainer, root / "batched.jsonl"),
        _traced_run(PerMessageTrainer, root / "loop.jsonl"),
    )


class TestDirectDifferential:
    def test_run_exercises_drops_and_uncertain_rounds(self, direct_runs):
        batched, _ = direct_runs
        assert batched["drops"]
        tags = {tag.split(":")[0] for _, _, tag in batched["drops"]}
        assert tags == {"slice", "global"}
        assert any(batched["uncertain"])

    @pytest.mark.parametrize(
        "key",
        ["records", "params", "rng", "drops", "bytes_sent", "sent",
         "delivered", "counters", "trace"],
    )
    def test_identical_to_per_message_loop(self, direct_runs, key):
        batched, loop = direct_runs
        assert batched[key] == loop[key]


class TestZeroDelaySimDifferential:
    """The null scenario's synchronous replay (``_collect_fast``)."""

    @pytest.fixture(scope="class")
    def sim_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sim-exchange")
        null = FaultScenario.none()
        return (
            _traced_run(FederatedTrainer, root / "sim.jsonl", null),
            _traced_run(PerMessageTrainer, root / "sim-loop.jsonl", null),
        )

    def test_identical_to_per_message_loop(self, sim_runs):
        batched, loop = sim_runs
        assert batched == loop

    def test_bit_identical_to_direct(self, sim_runs, direct_runs):
        sim, direct = sim_runs[0], direct_runs[0]
        for key in ("params", "rng", "drops", "bytes_sent", "sent", "delivered"):
            assert sim[key] == direct[key], key
        # same values; first-touch order differs, as it did per message:
        # the replay receives each slice as soon as it is sent
        assert dict(sim["counters"]) == dict(direct["counters"])
        direct_records = pickle.loads(direct["records"])
        for a, b in zip(pickle.loads(sim["records"]), direct_records):
            assert (a.accepted, a.uncertain, a.grad_norm, a.test_loss) == (
                b.accepted, b.uncertain, b.grad_norm, b.test_loss
            )
            assert pickle.dumps(a.mechanism_records) == pickle.dumps(
                b.mechanism_records
            )


class TestRoundTagsClosed:
    def test_direct_rounds_leave_no_queues(self):
        trainer = _build(FederatedTrainer)
        with np.errstate(over="ignore", invalid="ignore"):
            trainer.run(5)
        net = trainer.network
        assert not net._queues
        assert not net._tag_keys
        assert not net._dead_tags

    def test_per_message_rounds_are_purged_at_round_end(self):
        trainer = _build(PerMessageTrainer)
        with np.errstate(over="ignore", invalid="ignore"):
            trainer.run(5)
        assert not trainer.network._queues
        assert not trainer.network._tag_keys

    def test_latency_rounds_keep_tombstones_only_while_in_flight(self):
        scenario = FaultScenario(
            name="slow", latency=LatencyConfig("constant", 0.01)
        )
        trainer = _build(FederatedTrainer, scenario=scenario)
        net = trainer.network
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(6):
                trainer.run_round(t)
                # this round's broadcast is still in flight on the clock
                assert net.in_flight > 0
                assert net._dead_tags <= {f"slice:{t}", f"global:{t}"}
        trainer._sim_runner.sim.run()
        assert net.in_flight == 0
        assert not net._dead_tags
        assert not net._queues


def test_snapshot_with_tombstones_still_restores():
    trainer = _build(FederatedTrainer)
    with np.errstate(over="ignore", invalid="ignore"):
        trainer.run(2)
    state = snapshot._capture_network(trainer.network)
    assert state["dead_tags"] == []
    state["dead_tags"] = ["global:0", "slice:1"]  # as older snapshots hold
    fresh = _build(FederatedTrainer)
    snapshot._restore_network(fresh.network, state)
    assert not fresh.network._dead_tags
    assert fresh.network.drop_log.drops == trainer.network.drop_log.drops
