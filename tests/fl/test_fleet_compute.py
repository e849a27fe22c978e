"""Fleet local engine: RNG fidelity, attacker parity, fallbacks, e2e differential.

The engine's contract (see ``repro.fl.fleet_compute``) is that batching
is *observationally invisible* next to each worker running its own
``compute_update``: identical minibatch draws, identical uploads for
every worker type (honest, every attacker, free-riders), identical
training histories. These tests pin each clause; the end-to-end cases
swap the per-worker loop into the trainer as the oracle.
"""

import numpy as np
import pytest

from repro.datasets import iid_partition, make_blobs, sized_partition, train_test_split
from repro.experiments.common import (
    FedExpConfig,
    data_poison,
    probabilistic,
    run_federated,
    sign_flip,
)
from repro.fl import (
    WORKER_ROLES,
    ColludingAttacker,
    DataPoisonWorker,
    FederatedTrainer,
    FleetLocalEngine,
    FreeRiderWorker,
    GaussianNoiseAttacker,
    HonestWorker,
    ProbabilisticAttacker,
    ReplayFreeRider,
    RoundDecision,
    SampleInflationWorker,
    SignFlippingWorker,
    WorkerSpec,
    make_worker,
)
from repro.nn import SGD, Dense, Dropout, ReLU, Sequential, build_logreg, build_mlp
from repro.parallel import ThreadBackend
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation, stack_updates

TOL = 1e-8


def _theta(seed=0):
    return build_logreg(N_FEATURES, N_CLASSES, seed=seed).get_flat_params()


class TestRNGFidelity:
    def test_minibatch_indices_reproduce_worker_streams(self):
        """Fleet sampling must consume each worker's own ``default_rng(seed)``
        stream exactly as the scalar path does — draw for draw, across
        rounds. (The <= 1e-8 upload differentials pin that the drawn rows
        are the ones trained on.)"""
        local_iters, rounds = 3, 2
        workers, _, _ = make_federation(num_workers=4, seed=5, local_iters=local_iters)
        engine = FleetLocalEngine(workers)
        theta = _theta(5)
        # the seeds make_federation used
        refs = [np.random.default_rng(5 + 100 + i) for i in range(len(workers))]
        for _ in range(rounds):
            engine.compute_updates(theta)
            for w, ref in zip(workers, refs):
                b = min(w.batch_size, len(w.dataset))
                for _ in range(local_iters):
                    ref.integers(0, len(w.dataset), size=b)
                assert w.rng.bit_generator.state == ref.bit_generator.state

    def test_scalar_and_fleet_workers_end_with_same_rng_state(self):
        """After a round, both paths leave the worker RNG at the same point,
        so downstream draws (attacker coin flips next round) line up."""
        theta = _theta(3)
        scalar_w = make_federation(num_workers=3, seed=3)[0]
        fleet_w = make_federation(num_workers=3, seed=3)[0]
        for w in scalar_w:
            w.compute_update(theta)
        FleetLocalEngine(fleet_w).compute_updates(theta)
        for a, b in zip(scalar_w, fleet_w):
            assert a.rng.integers(0, 1 << 30) == b.rng.integers(0, 1 << 30)

    def test_duplicate_worker_ids_rejected(self):
        """A worker listed twice would draw two minibatch streams per round."""
        workers, _, _ = make_federation(num_workers=3)
        with pytest.raises(ValueError, match=r"duplicate worker ids: \[1\]"):
            FleetLocalEngine(workers + [workers[1]])


def _attacker_zoo(seed=0):
    """One worker of every type over shared blob shards."""
    data = make_blobs(n_samples=450, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed)
    shards = iid_partition(data, 9, seed=seed)

    def mf():
        return build_logreg(N_FEATURES, N_CLASSES, seed=seed)

    specs = [
        (HonestWorker, {}),
        (SignFlippingWorker, {"p_s": 4.0}),
        (DataPoisonWorker, {"p_d": 0.6, "poison_seed": 7}),
        (ProbabilisticAttacker, {"p_a": 0.5, "p_s": 4.0}),
        (GaussianNoiseAttacker, {"scale": 1.0}),
        (SampleInflationWorker, {"inflation": 5.0}),
        (ColludingAttacker, {"epsilon": 0.3}),
        (FreeRiderWorker, {}),
        (ReplayFreeRider, {"server_lr": 0.1}),
    ]
    return [
        cls(i, shards[i], mf, lr=0.1, batch_size=16, local_iters=2,
            seed=seed + 10 + i, **kw)
        for i, (cls, kw) in enumerate(specs)
    ]


class TestAttackerParity:
    def test_every_worker_type_uploads_identically(self):
        theta = _theta(1)
        scalar_updates = {
            w.worker_id: w.compute_update(theta, None) for w in _attacker_zoo(1)
        }
        engine = FleetLocalEngine(_attacker_zoo(1))
        fleet_updates = engine.compute_updates(theta, None)

        assert list(fleet_updates) == sorted(scalar_updates)  # id-ordered dict
        for wid, want in scalar_updates.items():
            got = fleet_updates[wid]
            assert np.abs(got.gradient - want.gradient).max() <= TOL
            assert got.num_samples == want.num_samples
            assert got.attacked == want.attacked

    def test_multi_round_parity(self):
        """Stateful attackers (probabilistic coin flips, replay free-rider)
        stay in lockstep across several rounds."""
        rounds = 3
        theta = _theta(2)
        scalar_zoo, fleet_zoo = _attacker_zoo(2), _attacker_zoo(2)
        engine = FleetLocalEngine(fleet_zoo)
        for _ in range(rounds):
            scalar_updates = {w.worker_id: w.compute_update(theta) for w in scalar_zoo}
            fleet_updates = engine.compute_updates(theta)
            for wid, want in scalar_updates.items():
                assert np.abs(fleet_updates[wid].gradient - want.gradient).max() <= TOL
            theta = theta - 0.05 * np.mean(
                [u.gradient for u in scalar_updates.values()], axis=0
            )


class TestStackedGather:
    """One fleet group over unequal shards: each worker's minibatch rows
    must come from its own slice of the stacked shards."""

    SIZES = [40, 9, 23, 57, 12, 31, 8, 44, 19, 26, 35, 10, 50, 15, 28, 21, 33, 11]

    def _workers(self):
        data = make_blobs(n_samples=600, n_features=N_FEATURES,
                          num_classes=N_CLASSES, seed=4)
        shards = sized_partition(data, self.SIZES, seed=4)

        def mf():
            return build_mlp(N_FEATURES, N_CLASSES, hidden=(6,), seed=4)

        return [
            HonestWorker(i, shards[i], mf, lr=0.1, batch_size=8, local_iters=2,
                         seed=40 + i)
            for i in range(len(self.SIZES))
        ]

    @pytest.mark.parametrize("mode", ["serial", "shard_size=2", "thread x2"])
    def test_unequal_shards_match_scalar(self, mode):
        theta = build_mlp(N_FEATURES, N_CLASSES, hidden=(6,), seed=4).get_flat_params()
        scalar = self._workers()
        fleet = self._workers()
        backend = ThreadBackend(2) if mode == "thread x2" else None
        engine = FleetLocalEngine(
            fleet, shard_size=2 if mode == "shard_size=2" else None, backend=backend
        )
        try:
            assert len(engine.compute_updates(theta)) == len(fleet)  # warm round
            got = engine.compute_updates(theta)
        finally:
            if backend is not None:
                backend.close()
        want = {}
        for _ in range(2):
            want = {w.worker_id: w.compute_update(theta) for w in scalar}
        groups = engine._groups
        assert len(groups) == (9 if mode == "shard_size=2" else
                               2 if mode == "thread x2" else 1)
        for wid, up in want.items():
            assert np.abs(got[wid].gradient - up.gradient).max() <= TOL
        for a, b in zip(scalar, fleet):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestFallbacks:
    def test_custom_optimizer_goes_scalar(self):
        workers, _, _ = make_federation(
            num_workers=3, worker_kwargs={"optimizer": SGD(lr=0.1, momentum=0.9)}
        )
        engine = FleetLocalEngine(workers)
        updates = engine.compute_updates(_theta())
        assert engine._groups == [] and len(engine._scalar) == 3
        assert sorted(updates) == [0, 1, 2]

    def test_dropout_model_goes_scalar(self):
        data = make_blobs(n_samples=90, n_features=N_FEATURES, num_classes=N_CLASSES, seed=0)
        shards = iid_partition(data, 2, seed=0)

        def mf():
            rng = np.random.default_rng(0)
            return Sequential(
                [Dense(N_FEATURES, 8, rng), ReLU(), Dropout(0.5, rng),
                 Dense(8, N_CLASSES, rng)]
            )

        workers = [HonestWorker(i, shards[i], mf, seed=i) for i in range(2)]
        engine = FleetLocalEngine(workers)
        engine.compute_updates(workers[0].model.get_flat_params())
        assert engine._groups == [] and len(engine._scalar) == 2

    def test_free_riders_go_scalar(self):
        engine = FleetLocalEngine(_attacker_zoo(0))
        engine.compute_updates(_theta())
        scalar_ids = {w.worker_id for w in engine._scalar}
        assert scalar_ids == {7, 8}  # FreeRider + ReplayFreeRider slots
        assert sum(len(g.workers) for g in engine._groups) == 7

    def test_heterogeneous_architectures_split_groups(self):
        data = make_blobs(n_samples=120, n_features=N_FEATURES, num_classes=N_CLASSES, seed=0)
        shards = iid_partition(data, 4, seed=0)

        # Same parameter count (so one global theta fits both), different
        # signatures (ReLU vs Tanh) — must land in separate fleet groups.
        def relu_mlp():
            rng = np.random.default_rng(0)
            return Sequential(
                [Dense(N_FEATURES, 7, rng), ReLU(), Dense(7, N_CLASSES, rng)]
            )

        def tanh_mlp():
            from repro.nn import Tanh

            rng = np.random.default_rng(0)
            return Sequential(
                [Dense(N_FEATURES, 7, rng), Tanh(), Dense(7, N_CLASSES, rng)]
            )

        workers = [
            HonestWorker(i, shards[i], relu_mlp if i < 2 else tanh_mlp, seed=i)
            for i in range(4)
        ]
        engine = FleetLocalEngine(workers)
        updates = engine.compute_updates(relu_mlp().get_flat_params())
        assert len(engine._groups) == 2
        assert sorted(len(g.workers) for g in engine._groups) == [2, 2]
        assert sorted(updates) == [0, 1, 2, 3]

    def test_exclude_drops_workers_and_caches_grouping(self):
        workers, _, _ = make_federation(num_workers=4)
        engine = FleetLocalEngine(workers)
        updates = engine.compute_updates(_theta(), exclude={1})
        assert sorted(updates) == [0, 2, 3]
        assert engine._grouped_for == frozenset({1})
        groups_before = engine._groups
        engine.compute_updates(_theta(), exclude={1})
        assert engine._groups is groups_before  # no rebuild for the same set


class _BoomMechanism:
    """Accept-all mechanism that explodes on the second round."""

    def __init__(self):
        self.calls = 0

    def process_round(self, ctx):
        self.calls += 1
        if self.calls >= 2:
            raise RuntimeError("boom")
        return RoundDecision(accept={w: True for w in ctx.slices})


class TestTrainerIntegration:
    def test_run_restores_test_data_on_exception(self):
        workers, _, test = make_federation(num_workers=3)
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), [0], test_data=test,
            mechanism=_BoomMechanism(),
        )
        with pytest.raises(RuntimeError, match="boom"):
            # eval_every=5: round 1 runs with test_data toggled to None,
            # which is exactly when the mechanism raises.
            trainer.run(5, eval_every=5)
        assert trainer.test_data is test

    def test_failed_node_excluded_from_fleet(self):
        workers, _, test = make_federation(num_workers=4)
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), [0], test_data=test,
        )
        trainer.fail_node(2)
        rec = trainer.run_round(0)
        assert 2 not in rec.accepted


#: scaled-down stand-ins for the fig07 / fig09 / fig11 federations
_E2E_CASES = {
    "fig07_attack_damage": (
        dict(rounds=4, eval_every=2),
        {2: sign_flip(2.0), 3: data_poison(0.6)},
        False,
    ),
    "fig09_detection": (
        dict(rounds=4, eval_every=2, batch_size=8),
        {3: sign_flip(4.0), 4: data_poison(0.8), 5: probabilistic(0.5)},
        True,
    ),
    "fig11_reputation": (
        dict(rounds=4, eval_every=2),
        {4: probabilistic(0.8, 4.0), 5: probabilistic(0.2, 4.0)},
        True,
    ),
}


class PerWorkerLocal:
    """Local-compute oracle: every live worker's own ``compute_update``,
    one after another in worker order, in place of the fleet engine."""

    def __init__(self, workers):
        self.workers = workers

    def compute_updates(self, theta, global_buffers=None, exclude=None):
        exclude = exclude or ()
        return stack_updates({
            w.worker_id: w.compute_update(theta, global_buffers)
            for w in self.workers
            if w.worker_id not in exclude
        }, theta.size)


def run_both(cfg, attackers, with_fifl, monkeypatch):
    """One federation through the fleet engine, then through the oracle."""
    fleet, _ = run_federated(cfg, attackers, with_fifl=with_fifl)
    with monkeypatch.context() as m:
        m.setattr(
            FederatedTrainer, "_fleet_for",
            lambda self, workers: PerWorkerLocal(workers),
        )
        scalar, _ = run_federated(cfg, attackers, with_fifl=with_fifl)
    return scalar, fleet


class TestEndToEndDifferential:
    @pytest.mark.parametrize("name", sorted(_E2E_CASES))
    def test_histories_match(self, name, monkeypatch):
        fed_kwargs, attackers, with_fifl = _E2E_CASES[name]
        cfg = FedExpConfig(
            dataset="blobs",
            num_workers=6,
            samples_per_worker=40,
            test_samples=80,
            local_iters=1,
            server_ranks=(0, 1),
            **fed_kwargs,
        )
        scalar, fleet = run_both(cfg, attackers, with_fifl, monkeypatch)
        assert len(scalar.rounds) == len(fleet.rounds)
        for rs, rf in zip(scalar.rounds, fleet.rounds):
            assert rs.accepted == rf.accepted
            assert rs.uncertain == rf.uncertain
            assert abs(rs.grad_norm - rf.grad_norm) <= TOL
            if rs.test_loss is not None:
                assert abs(rs.test_loss - rf.test_loss) <= TOL
                assert abs(rs.test_acc - rf.test_acc) <= TOL

    def test_uploads_and_generators_match_for_every_role(self, monkeypatch):
        """Two honest servers plus one worker of every registered role: each
        round's upload rows and sample counts equal the per-worker loop's,
        and every worker's generator ends each round in the same state."""

        class Recorder:
            def __init__(self):
                self.rounds = []

            def process_round(self, ctx):
                self.rounds.append((
                    ctx.worker_ids.copy(), np.array(ctx.uploads),
                    ctx.sample_counts.copy(),
                ))
                return RoundDecision(
                    accept=dict.fromkeys(ctx.worker_ids.tolist(), True)
                )

        def federation():
            roles = ["honest", "honest"] + sorted(WORKER_ROLES)
            data = make_blobs(n_samples=40 * len(roles), n_features=N_FEATURES,
                              num_classes=N_CLASSES, seed=3)
            shards = iid_partition(data, len(roles), seed=3)
            workers = [
                make_worker(WorkerSpec(role), wid, shards[wid],
                            lambda: build_logreg(N_FEATURES, N_CLASSES, seed=3),
                            seed=30 + wid, lr=0.1, batch_size=8)
                for wid, role in enumerate(roles)
            ]
            recorder = Recorder()
            trainer = FederatedTrainer(
                build_logreg(N_FEATURES, N_CLASSES, seed=3),
                WorkerPopulation.from_workers(workers), [0, 1],
                mechanism=recorder, server_lr=0.05,
            )
            return trainer, workers, recorder

        fleet, fleet_workers, fleet_rec = federation()
        scalar, scalar_workers, scalar_rec = federation()
        monkeypatch.setattr(scalar, "_fleet_for", PerWorkerLocal)
        for t in range(3):
            fleet.run_round(t)
            scalar.run_round(t)
            for a, b in zip(fleet_workers, scalar_workers):
                assert a.rng.bit_generator.state == b.rng.bit_generator.state, (
                    f"round {t}: worker {a.worker_id} generator"
                )
        assert len(fleet_rec.rounds) == len(scalar_rec.rounds) == 3
        for (ids_f, up_f, n_f), (ids_s, up_s, n_s) in zip(
            fleet_rec.rounds, scalar_rec.rounds
        ):
            np.testing.assert_array_equal(ids_f, ids_s)
            np.testing.assert_array_equal(n_f, n_s)
            np.testing.assert_allclose(up_f, up_s, atol=TOL, rtol=0)

    def test_histories_match_image_models(self, monkeypatch):
        """LeNet (Conv/pool) and mini-ResNet (BatchNorm/Residual) paths."""
        for dataset in ("mnist", "cifar10"):
            cfg = FedExpConfig(
                dataset=dataset,
                num_workers=4,
                samples_per_worker=24,
                test_samples=40,
                image_size=14 if dataset == "mnist" else 8,
                rounds=2,
                eval_every=1,
                batch_size=8,
                server_ranks=(0, 1),
            )
            scalar, fleet = run_both(
                cfg, {3: sign_flip(2.0)}, True, monkeypatch
            )
            for rs, rf in zip(scalar.rounds, fleet.rounds):
                assert rs.accepted == rf.accepted
                assert abs(rs.grad_norm - rf.grad_norm) <= TOL
                if rs.test_loss is not None:
                    assert abs(rs.test_loss - rf.test_loss) <= TOL

    @staticmethod
    def _mlp_trainer(num_workers=8, n_attackers=2, seed=0):
        """A 16→64→4 MLP on blobs, 100 samples and batch 8 per worker,
        the last two ranks sign-flippers."""
        data = make_blobs(
            n_samples=num_workers * 100 + 400, n_features=16, num_classes=4,
            seed=seed,
        )
        train, test = train_test_split(data, 400 / len(data), seed=seed)
        shards = iid_partition(train, num_workers, seed=seed)

        def model_fn():
            return build_mlp(16, 4, hidden=(64,), seed=seed)

        workers = []
        for wid in range(num_workers):
            attacker = wid >= num_workers - n_attackers
            cls = SignFlippingWorker if attacker else HonestWorker
            workers.append(cls(
                wid, shards[wid], model_fn, lr=0.05, batch_size=8,
                local_iters=1, seed=seed + 1000 + wid,
                **({"p_s": 4.0} if attacker else {}),
            ))
        return FederatedTrainer(
            model_fn(), WorkerPopulation.from_workers(workers), [0, 1],
            test_data=test, server_lr=0.05, seed=seed,
        )

    def test_mlp_histories_match(self, monkeypatch):
        """The MLP federation the local-step benchmark times, 4 rounds."""
        fleet = self._mlp_trainer()
        h_f = fleet.run(4, eval_every=1)
        with monkeypatch.context() as m:
            m.setattr(
                FederatedTrainer, "_fleet_for",
                lambda self, workers: PerWorkerLocal(workers),
            )
            scalar = self._mlp_trainer()
            h_s = scalar.run(4, eval_every=1)
        assert len(h_s.rounds) == len(h_f.rounds) == 4
        for rs, rf in zip(h_s.rounds, h_f.rounds):
            assert rs.accepted == rf.accepted
            assert abs(rs.grad_norm - rf.grad_norm) <= TOL
            assert abs(rs.test_loss - rf.test_loss) <= TOL
            assert abs(rs.test_acc - rf.test_acc) <= TOL
        np.testing.assert_allclose(
            scalar.model.get_flat_params(), fleet.model.get_flat_params(),
            atol=TOL, rtol=0,
        )
